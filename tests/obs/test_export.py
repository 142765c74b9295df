"""Tests for the exporters, validators, and the checked-in schema."""

import json
from pathlib import Path

import pytest

from repro.obs.export import (
    SNAPSHOT_ROW_SCHEMA,
    SchemaError,
    dumps_row,
    export_metrics_dir,
    read_jsonl,
    to_prometheus,
    trace_snapshot,
    profile_snapshot,
    validate_jsonl,
    validate_metrics_dir,
    validate_prometheus,
    validate_snapshot_row,
    validate_trace_snapshot,
    validate_profile_snapshot,
    write_jsonl,
)
from repro.obs.metrics import canonical_key, parse_key
from repro.obs.registry import MetricsRegistry
from repro.sim.kernel import Simulation

SCHEMA_DOC = (
    Path(__file__).resolve().parents[2] / "docs" / "schemas" / "metrics_v2.json"
)


def make_registry(sim: Simulation) -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.inc(sim, "nsd.rpc.total", 3, op="read")
    reg.inc(sim, "nsd.rpc.total", 2, op="write")
    reg.set_gauge(sim, "kernel.queue_depth", 4.0)
    for v in (0.001, 0.01, 0.2):
        reg.observe(sim, "nsd.rpc.latency", v, op="read")
    reg.observe(sim, "nsd.rpc.latency", 0.5, op="write")
    return reg


class TestCheckedInSchema:
    def test_schema_document_matches_code(self):
        # The schema CI validates against is checked in; it must be the
        # byte-equal twin of the structure the exporter enforces.
        assert json.loads(SCHEMA_DOC.read_text()) == SNAPSHOT_ROW_SCHEMA


class TestPrometheus:
    def test_output_validates(self):
        sim = Simulation()
        row = make_registry(sim).scrape(sim)
        text = to_prometheus(row)
        assert validate_prometheus(text) > 0
        assert '# TYPE nsd_rpc_total counter' in text
        assert f'nsd_rpc_total{{op="read",sim="{sim.id}"}} 3' in text
        assert '# TYPE nsd_rpc_latency histogram' in text
        assert f'nsd_rpc_latency_count{{op="read",sim="{sim.id}"}} 3' in text

    def test_histogram_buckets_cumulative_with_inf(self):
        sim = Simulation()
        reg = MetricsRegistry()
        reg.observe(sim, "lat", 0.5)
        reg.observe(sim, "lat", 0.5)
        text = to_prometheus(reg.scrape(sim))
        assert f'lat_bucket{{le="+Inf",sim="{sim.id}"}} 2' in text
        validate_prometheus(text)

    def test_labeled_series_validated_independently(self):
        # Regression: `le` sorts first, so a naive series key collapsed
        # all op= children into one bucket sequence and flagged false
        # non-monotonicity.
        sim = Simulation()
        validate_prometheus(to_prometheus(make_registry(sim).scrape(sim)))

    def test_missing_inf_bucket_rejected(self):
        with pytest.raises(SchemaError, match="Inf"):
            validate_prometheus('x_bucket{le="1"} 1\n')

    def test_bad_value_rejected(self):
        with pytest.raises(SchemaError, match="bad value"):
            validate_prometheus("metric oops\n")


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        sim = Simulation()
        reg = make_registry(sim)
        reg.scrape(sim)
        reg.scrape(sim)
        path = str(tmp_path / "m.jsonl")
        write_jsonl(reg.rows, path)
        assert read_jsonl(path) == reg.rows
        assert validate_jsonl(path) == 2

    def test_rows_serialized_deterministically(self):
        row = {"b": 1, "a": {"z": 2, "y": 3}}
        assert dumps_row(row) == '{"a":{"y":3,"z":2},"b":1}'

    def test_per_sim_time_monotonicity(self, tmp_path):
        # E8-style sweeps interleave rows from independent sim clocks;
        # only same-sim rows must be time-ordered.
        reg = MetricsRegistry()
        sims = [Simulation(), Simulation()]

        def row(sim, t):
            sim._now = t
            return reg.scrape(sim)

        rows = [row(sims[0], 5.0), row(sims[1], 1.0), row(sims[0], 6.0)]
        path = str(tmp_path / "m.jsonl")
        write_jsonl(rows, path)
        assert validate_jsonl(path) == 3
        rows.append(row(sims[0], 2.0))  # backwards for sim 0
        write_jsonl(rows, path)
        with pytest.raises(SchemaError, match="backwards"):
            validate_jsonl(path)

    def test_row_validation_rejects_garbage(self):
        with pytest.raises(SchemaError):
            validate_snapshot_row([])
        with pytest.raises(SchemaError, match="missing field"):
            validate_snapshot_row({"schema": "repro.metrics/v2"})
        sim = Simulation()
        row = make_registry(sim).scrape(sim)
        row["histograms"][f"nsd.rpc.latency{{op=read,sim={sim.id}}}"]["count"] = 99
        with pytest.raises(SchemaError, match="sum to count"):
            validate_snapshot_row(row)

    def test_row_validation_rejects_keys_without_a_universe(self):
        sim = Simulation()
        row = make_registry(sim).scrape(sim)
        validate_snapshot_row(row)
        for table in ("counters", "gauges", "histograms"):
            key, value = next(iter(row[table].items()))
            family, labels = parse_key(key)
            del labels["sim"]
            bad = {**row, table: {canonical_key(family, labels): value}}
            with pytest.raises(SchemaError, match=f"{table} key .* has no 'sim'"):
                validate_snapshot_row(bad)


class TestMetricsDir:
    def test_export_and_validate(self, tmp_path):
        sim = Simulation()
        reg = make_registry(sim)
        reg.scrape(sim)
        paths = export_metrics_dir(
            reg, str(tmp_path), "E99", meta={"phases": []}
        )
        for p in paths.values():
            assert Path(p).exists()
        info = validate_metrics_dir(str(tmp_path))
        assert info == {"E99": {"rows": 1, "samples": info["E99"]["samples"]}}
        meta = json.loads(Path(paths["meta"]).read_text())
        assert meta["exp_id"] == "E99"
        assert meta["kind"] == "meta"
        assert meta["phases"] == []

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(SchemaError, match="no .metrics.jsonl"):
            validate_metrics_dir(str(tmp_path))


class TestSnapshotDedup:
    def test_profile_snapshot_is_the_profile_schema(self):
        # Counter families summed over their label sets; gauges and
        # histograms stay out of the profile.
        reg = make_registry(Simulation())
        reg.register_callback(Simulation(), "flow.recomputes", lambda: 4.0, kind="counter")
        reg.register_callback(Simulation(), "flow.recomputes", lambda: 6.0, kind="counter")
        snap = profile_snapshot(reg)
        assert snap == {"counters": {"flow.recomputes": 10.0, "nsd.rpc.total": 5.0}}
        validate_profile_snapshot(snap)
        assert reg.rows == []  # reading appends no scrape row

    def test_trace_snapshot_is_the_tracer_schema(self):
        from repro.sim.trace import Tracer

        tr = Tracer()
        tr.enable()
        sim = Simulation()

        with tr.span(sim, "work", cat="cat"):
            pass
        snap = tr.metrics_snapshot()
        assert snap == trace_snapshot(tr)
        validate_trace_snapshot(snap)
        assert snap["events"]["recorded"] >= 1

    def test_validators_reject_wrong_shape(self):
        with pytest.raises(SchemaError):
            validate_trace_snapshot({"events": {}})
        with pytest.raises(SchemaError):
            validate_profile_snapshot({"counters": []})
        with pytest.raises(SchemaError):
            validate_profile_snapshot({"counters": {}, "timers": {}})
        with pytest.raises(SchemaError, match="nsd.rpc.total"):
            validate_profile_snapshot({"counters": {"nsd.rpc.total{op=read}": 3}})
