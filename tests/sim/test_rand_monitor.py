"""Tests for RngRegistry and sim-time monitoring (Gauge, RateMeter)."""

import pytest

from repro.obs.metrics import Gauge
from repro.sim import RngRegistry, Simulation
from repro.util.timeseries import RateMeter


class TestRngRegistry:
    def test_same_seed_same_stream(self):
        a = RngRegistry(seed=7).stream("disk").random(5)
        b = RngRegistry(seed=7).stream("disk").random(5)
        assert (a == b).all()

    def test_different_names_independent(self):
        reg = RngRegistry(seed=7)
        a = reg.stream("disk").random(5)
        b = reg.stream("net").random(5)
        assert not (a == b).all()

    def test_different_seeds_differ(self):
        a = RngRegistry(seed=1).stream("x").random(5)
        b = RngRegistry(seed=2).stream("x").random(5)
        assert not (a == b).all()

    def test_stream_cached(self):
        reg = RngRegistry()
        assert reg.stream("x") is reg.stream("x")

    def test_helpers(self):
        reg = RngRegistry(seed=3)
        u = reg.uniform("u", 2.0, 3.0)
        assert 2.0 <= u < 3.0
        e = reg.exponential("e", mean=5.0)
        assert e >= 0
        i = reg.integers("i", 0, 10)
        assert 0 <= i < 10
        assert reg.choice("c", ["only"]) == "only"

    def test_exponential_validation(self):
        with pytest.raises(ValueError):
            RngRegistry().exponential("e", mean=0)


class TestMonitor:
    """Gauges and rate meters stamped with a simulation's clock."""

    def test_meter_records_at_sim_time(self):
        sim = Simulation()
        meter = RateMeter(window=1.0, name="net")

        def proc(sim):
            yield sim.timeout(0.5)
            meter.record(sim.now, 100)
            yield sim.timeout(1.0)
            meter.record(sim.now, 300)

        sim.process(proc(sim))
        sim.run()
        series = meter.series(t_end=2.0)
        assert series.values == [100.0, 300.0]

    def test_gauge(self):
        sim = Simulation()
        g = Gauge("queue")

        def proc(sim):
            g.set(3)
            yield sim.timeout(2)
            g.set(5)

        sim.process(proc(sim))
        sim.run()
        assert g.last() == 5

    def test_gauge_unset_raises(self):
        with pytest.raises(ValueError):
            Gauge(name="g").last()

    def test_gauge_unset_error_names_gauge(self):
        with pytest.raises(ValueError, match="'depth'"):
            Gauge(name="depth").last()

    def test_meter_windowing_bins_by_window(self):
        sim = Simulation()
        meter = RateMeter(window=2.0, name="net")

        def proc(sim):
            meter.record(sim.now, 100)  # t=0, bin [0,2)
            yield sim.timeout(1.0)
            meter.record(sim.now, 100)  # t=1, bin [0,2)
            yield sim.timeout(2.0)
            meter.record(sim.now, 600)  # t=3, bin [2,4)

        sim.process(proc(sim))
        sim.run()
        series = meter.series(t_end=4.0)
        # Per-window byte totals divided by the window length.
        assert series.times == [2.0, 4.0]
        assert series.values == [100.0, 300.0]

    def test_rate_series_empty_window_at_t_zero(self):
        # Asking for the trace at sim start (t_end=0) is an empty window,
        # not a crash and not a single all-of-time bin.
        sim = Simulation()
        meter = RateMeter(window=1.0, name="net")
        meter.record(sim.now, 100)
        assert meter.series(t_end=0.0).empty
        # t_end=sim.now at t=0 behaves the same way.
        assert meter.series(sim.now).empty
