"""Tests for the combined report runner."""

import dataclasses
import json

import pytest

from repro.experiments.harness import Experiment, Gate
from repro.experiments.report import _registry, experiments, main, run_trace
from repro.obs.export import validate_profile_snapshot
from repro.util.units import Gbps

ALL_IDS = [f"E{i}" for i in range(1, 18)] + [f"A{i}" for i in range(1, 7)]


class TestRegistry:
    def test_quick_and_full_cover_every_experiment(self):
        assert sorted(_registry(True)) == sorted(ALL_IDS)
        assert sorted(_registry(False)) == sorted(ALL_IDS)

    def test_entries_are_callable(self):
        for label, thunk in _registry(True).values():
            assert callable(thunk) and label

    def test_every_experiment_declares_gates(self):
        for exp_id, exp in experiments().items():
            assert exp.exp_id == exp_id
            assert exp.gates, exp_id
            names = [gate.name for gate in exp.gates]
            assert len(set(names)) == len(names), exp_id


class TestGates:
    """Full-size runs are gated; A3, E8 and A6 are bare-engine sweeps
    that run at full size in well under a second."""

    ONLY = ["--only", "A3", "E8", "A6"]

    def test_full_run_prints_each_tally(self, capsys):
        assert main(self.ONLY) == 0
        captured = capsys.readouterr()
        assert captured.out.count("gates: 4/4 passed") == 3
        assert "FAILED" not in captured.out + captured.err

    def test_failed_gate_reported_after_whole_report(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.experiments.e8_latency as e8

        impossible = Gate(
            "parallel_streams_at_80ms",
            lambda m: m["rate_rtt80_s64"] > Gbps(99),
            "> 99 Gb/s (paper: line rate at 80 ms)",
        )
        gates = tuple(
            impossible if gate.name == impossible.name else gate
            for gate in e8.E8.gates
        )
        monkeypatch.setattr(e8, "E8", dataclasses.replace(e8.E8, gates=gates))
        out = tmp_path / "report.txt"
        assert main(self.ONLY + ["--out", str(out)]) == 1
        text = out.read_text()
        assert all(f"{exp_id}:" in text for exp_id in ("A3", "E8", "A6"))
        assert "gates: 3/4 passed" in text
        err = capsys.readouterr().err
        assert "1 gate(s) failed" in err
        [line] = [ln for ln in err.splitlines() if "parallel_streams" in ln]
        assert "E8 parallel_streams_at_80ms: rate_rtt80_s64 = " in line
        assert "expected > 99 Gb/s (paper: line rate at 80 ms)" in line

    def test_quick_run_evaluates_no_gate(self, capsys, monkeypatch):
        def refuse(self, metrics):
            raise AssertionError("quick runs are not gated")

        monkeypatch.setattr(Experiment, "failed_gates", refuse)
        assert main(["--quick", "--only", "A3"]) == 0
        assert "gates:" not in capsys.readouterr().out

    def test_missing_metric_fails_its_gate(self):
        failures = experiments()["A6"].failed_gates({"single_0": 1.0})
        assert len(failures) == 4
        assert "A6 window_limited_at_1e-6: metric 'single_1em06' missing" in (
            failures[0]
        )


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
