"""Tests for SLO objectives, burn rates, sliding windows, phase stats."""

import pytest

from repro.obs.metrics import Histogram
from repro.obs.slo import (
    AvailabilityObjective,
    LatencyObjective,
    SloTracker,
    phase_stats,
)


def row(t, counters=None, histograms=None, sim=1):
    return {
        "schema": "repro.metrics/v2",
        "kind": "scrape",
        "t": t,
        "sim": sim,
        "counters": counters or {},
        "gauges": {},
        "histograms": histograms or {},
    }


def latency_rows(samples_by_t, bounds=(0.1, 1.0, 10.0)):
    """Cumulative histogram rows from {t: [observations so far]}."""
    rows = []
    h = Histogram("client.read.latency", bounds=list(bounds))
    done = 0
    for t in sorted(samples_by_t):
        for v in samples_by_t[t][done:]:
            h.observe(v)
        done = len(samples_by_t[t])
        rows.append(row(t, histograms={"client.read.latency": h.to_dict()}))
    return rows


class TestAvailability:
    def avail(self, target=0.99, window=5.0):
        return AvailabilityObjective(
            name="a", ok_metric="ok", err_metric="err",
            target=target, window=window,
        )

    def test_perfect_compliance(self):
        rows = [row(0.0, {"ok": 0.0, "err": 0.0}),
                row(1.0, {"ok": 100.0, "err": 0.0})]
        [out] = SloTracker().add(self.avail()).evaluate(rows)
        assert out["compliance"] == 1.0
        assert out["burn_rate"] == 0.0
        assert not out["breached"]

    def test_burn_rate_math(self):
        # 2% bad against a 1% budget = burning 2x.
        rows = [row(0.0, {"ok": 0.0, "err": 0.0}),
                row(1.0, {"ok": 98.0, "err": 2.0})]
        [out] = SloTracker().add(self.avail(target=0.99)).evaluate(rows)
        assert out["compliance"] == pytest.approx(0.98)
        assert out["burn_rate"] == pytest.approx(2.0)
        assert out["breached"]

    def test_zero_budget_burn_is_none_not_inf(self):
        # target=1.0 must stay JSON-safe: burn None, breach on any error.
        rows = [row(0.0, {"ok": 0.0, "err": 0.0}),
                row(1.0, {"ok": 99.0, "err": 1.0})]
        [out] = SloTracker().add(self.avail(target=1.0)).evaluate(rows)
        assert out["burn_rate"] is None
        assert out["max_window_burn"] is None
        assert out["breached"]

    def test_zero_budget_clean_run_ok(self):
        rows = [row(0.0, {"ok": 0.0, "err": 0.0}),
                row(1.0, {"ok": 50.0, "err": 0.0})]
        [out] = SloTracker().add(self.avail(target=1.0)).evaluate(rows)
        assert not out["breached"]
        assert out["error_budget"] == 0.0

    def test_labeled_children_aggregated(self):
        rows = [row(1.0, {"ok{client=a}": 30.0, "ok{client=b}": 20.0,
                          "err{client=a}": 0.0})]
        [out] = SloTracker().add(self.avail()).evaluate(rows)
        assert out["events"] == 50.0

    def test_sliding_window_finds_worst_burst(self):
        # All 4 errors land in one 1s window of a 4s run.
        rows = [
            row(0.0, {"ok": 0.0, "err": 0.0}),
            row(1.0, {"ok": 100.0, "err": 0.0}),
            row(2.0, {"ok": 196.0, "err": 4.0}),
            row(3.0, {"ok": 296.0, "err": 4.0}),
        ]
        [out] = SloTracker().add(
            self.avail(target=0.99, window=1.0)
        ).evaluate(rows)
        # Overall: 4/300 bad → 1.33x. Worst window: 4/100 bad → 4x.
        assert out["burn_rate"] == pytest.approx(4 / 3, rel=1e-6)
        assert out["max_window_burn"] == pytest.approx(4.0)
        assert out["max_window_span"] == [1.0, 2.0]

    def test_empty_windows_vacuously_compliant(self):
        rows = [row(float(t), {"ok": 10.0, "err": 0.0}) for t in range(3)]
        [out] = SloTracker().add(self.avail(window=1.0)).evaluate(rows)
        assert not out["breached"]

    def test_no_rows(self):
        [out] = SloTracker().add(self.avail()).evaluate([])
        assert out["compliance"] == 1.0
        assert out["events"] == 0.0


class TestLatency:
    def lat(self, le=1.0, target=0.9, window=5.0):
        return LatencyObjective(
            name="l", metric="client.read.latency",
            le=le, target=target, window=window,
        )

    def test_compliance_from_bucket_counts(self):
        rows = latency_rows({1.0: [0.05] * 9 + [5.0]})
        [out] = SloTracker().add(self.lat(le=1.0, target=0.9)).evaluate(rows)
        assert out["compliance"] == pytest.approx(0.9)
        assert not out["breached"]

    def test_threshold_on_bucket_boundary_exact(self):
        # An observation exactly at le counts as good (le semantics).
        rows = latency_rows({1.0: [1.0, 2.0]})
        [out] = SloTracker().add(self.lat(le=1.0, target=0.5)).evaluate(rows)
        assert out["good_events"] == 1.0
        assert out["compliance"] == 0.5

    def test_mid_bucket_threshold_rounds_against_objective(self):
        # 0.5 falls inside bucket (0.1, 1.0]; its count must not be
        # credited as "under 0.5".
        rows = latency_rows({1.0: [0.05, 0.5]})
        [out] = SloTracker().add(self.lat(le=0.5, target=0.5)).evaluate(rows)
        assert out["good_events"] == 1.0

    def test_windowed_latency_burst(self):
        rows = latency_rows({
            0.0: [],
            1.0: [0.05] * 10,
            2.0: [0.05] * 10 + [5.0] * 10,
        })
        [out] = SloTracker().add(
            self.lat(le=1.0, target=0.9, window=1.0)
        ).evaluate(rows)
        assert out["compliance"] == pytest.approx(0.5)
        assert out["max_window_compliance"] == pytest.approx(0.0)
        assert out["max_window_span"] == [1.0, 2.0]

    def test_result_carries_objective_fields(self):
        [out] = SloTracker().add(self.lat()).evaluate([])
        assert out["metric"] == "client.read.latency"
        assert out["le"] == 1.0
        assert out["kind"] == "latency"


class TestPhaseStats:
    def test_per_phase_deltas(self):
        h = Histogram("client.read.latency", bounds=[0.1, 1.0])
        rows = []
        # t=0: nothing yet.
        rows.append(row(0.0, {"ok": 0.0, "err": 0.0},
                        {"client.read.latency": h.to_dict()}))
        # t=1: 10 fast reads.
        for _ in range(10):
            h.observe(0.05)
        rows.append(row(1.0, {"ok": 10.0, "err": 0.0},
                        {"client.read.latency": h.to_dict()}))
        # t=2: 5 slow reads and 5 errors.
        for _ in range(5):
            h.observe(0.5)
        rows.append(row(2.0, {"ok": 15.0, "err": 5.0},
                        {"client.read.latency": h.to_dict()}))
        phases = [
            {"name": "nominal", "t0": 0.0, "t1": 1.0},
            {"name": "degraded", "t0": 1.0, "t1": 2.0},
        ]
        stats = phase_stats(rows, phases, "client.read.latency", "ok", "err")
        assert stats[0]["reads"] == 10
        assert stats[0]["availability"] == 1.0
        assert stats[0]["p50"] is not None and stats[0]["p50"] <= 0.1
        assert stats[1]["reads"] == 5
        assert stats[1]["availability"] == pytest.approx(0.5)
        assert stats[1]["p99"] is not None and stats[1]["p99"] > 0.1

    def test_phase_with_no_reads(self):
        rows = [row(0.0, {"ok": 0.0, "err": 0.0})]
        stats = phase_stats(
            rows, [{"name": "idle", "t0": 0.0, "t1": 1.0}],
            "client.read.latency", "ok", "err",
        )
        assert stats[0]["reads"] == 0
        assert stats[0]["p50"] is None
        assert stats[0]["availability"] == 1.0
