"""Tests for the combined report runner."""

import json

import pytest

from repro.experiments.report import _registry, main, run_trace
from repro.obs.export import validate_profile_snapshot

ALL_IDS = [f"E{i}" for i in range(1, 18)] + [f"A{i}" for i in range(1, 7)]


class TestRegistry:
    def test_quick_and_full_cover_every_experiment(self):
        assert sorted(_registry(True)) == sorted(ALL_IDS)
        assert sorted(_registry(False)) == sorted(ALL_IDS)

    def test_entries_are_callable(self):
        for label, thunk in _registry(True).values():
            assert callable(thunk) and label


class TestCli:
    def test_unknown_id_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--only", "E99"])

    def test_single_quick_run(self, capsys, tmp_path):
        out = tmp_path / "report.txt"
        rc = main(["--quick", "--only", "A3", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "A3:" in text
        assert "window" in text

    def test_stdout_contains_result(self, capsys):
        main(["--quick", "--only", "A3"])
        captured = capsys.readouterr()
        assert "ablation" in captured.out


def profile_counters(tmp_path, exp_id):
    path = tmp_path / "prof.json"
    # --profile-json implies profiling even without --profile.
    assert main(["--quick", "--only", exp_id, "--profile-json", str(path)]) == 0
    snap = json.loads(path.read_text())
    assert list(snap) == [exp_id]
    validate_profile_snapshot(snap[exp_id])
    counters = snap[exp_id]["counters"]
    # Totals under the metrics export's family names.
    for family in ("kernel.events", "flow.recomputes", "flow.active_rows"):
        assert counters[family] > 0, family
    return counters


class TestProfileJson:
    def test_profile_json_written_per_experiment(self, capsys, tmp_path):
        # A3's cells are bare FlowEngines: no Gfs, no collector. Each cell
        # is one flow, so its solver work is one-column solves.
        counters = profile_counters(tmp_path, "A3")
        assert counters["fairshare.single_flow_solves"] > 0
        assert counters["fairshare.solved_rows"] == 0

    def test_gfs_experiment_counters(self, capsys, tmp_path):
        counters = profile_counters(tmp_path, "E10")
        assert counters["fairshare.solved_rows"] > 0
        # Coalescing reads as blocks over RPCs; E10 mounts max_coalesce=1.
        blocks = counters["nsd.blocks_read"] + counters["nsd.blocks_written"]
        assert blocks == counters["nsd.rpc.total"] > 0


class TestTraceDir:
    def test_trace_dir_writes_parseable_chrome_trace(self, capsys, tmp_path):
        d = tmp_path / "traces"
        rc = main(["--quick", "--only", "A3", "--trace-dir", str(d)])
        assert rc == 0
        doc = json.loads((d / "A3.trace.json").read_text())
        events = doc["traceEvents"]
        assert events
        assert all({"ph", "name", "pid", "tid"} <= set(e) for e in events)
        # The report section carries the attribution summary.
        assert "bottlenecks:" in capsys.readouterr().out

    def test_tracer_left_disabled_and_empty(self, capsys, tmp_path):
        from repro.sim.trace import TRACE

        main(["--quick", "--only", "A3", "--trace-dir", str(tmp_path)])
        assert not TRACE.enabled
        assert not TRACE.flows and len(TRACE._events) == 0


class TestRunTrace:
    def test_unknown_id_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run_trace("E99", str(tmp_path / "t.json"), quick=True)

    def test_writes_trace_and_prints_bound_table(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        rc = run_trace("A3", str(out), quick=True)
        assert rc == 0
        doc = json.loads(out.read_text())
        assert any(e["ph"] == "b" and e.get("cat") == "flow"
                   for e in doc["traceEvents"])
        err = capsys.readouterr().err
        assert "distinct bounds" in err
        assert "flow-s" in err
