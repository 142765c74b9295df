"""Tests for the metrics registry, callbacks, scrape rows, and collector."""

import pytest

from repro.obs.collect import Collector
from repro.obs.export import validate_snapshot_row
from repro.obs.metrics import MetricError, counter_delta
from repro.obs.registry import SCHEMA, MetricsRegistry
from repro.sim.kernel import Simulation


class TestRegistration:
    def test_get_or_create_returns_same_object(self):
        sim = Simulation()
        reg = MetricsRegistry()
        assert reg.counter(sim, "c") is reg.counter(sim, "c")
        assert reg.gauge(sim, "g") is reg.gauge(sim, "g")
        assert reg.histogram(sim, "h") is reg.histogram(sim, "h")

    def test_labels_distinguish_children(self):
        sim = Simulation()
        reg = MetricsRegistry()
        a = reg.counter(sim, "rpc", op="read")
        b = reg.counter(sim, "rpc", op="write")
        assert a is not b
        a.inc(3)
        assert b.value == 0.0

    def test_family_kind_collision_raises(self):
        sim = Simulation()
        reg = MetricsRegistry()
        reg.counter(sim, "m")
        with pytest.raises(MetricError, match="already registered as counter"):
            reg.gauge(sim, "m")

    def test_kind_collision_caught_across_labels(self):
        # The *family* has one kind across labels and universes.
        reg = MetricsRegistry()
        reg.counter(Simulation(), "m", op="read")
        with pytest.raises(MetricError):
            reg.histogram(Simulation(), "m", op="write")

    def test_duplicate_callback_key_raises(self):
        sim = Simulation()
        reg = MetricsRegistry()
        reg.register_callback(sim, "depth", lambda: 1.0)
        with pytest.raises(MetricError, match="already registered"):
            reg.register_callback(sim, "depth", lambda: 2.0)

    def test_callback_cannot_shadow_stored_metric(self):
        sim = Simulation()
        reg = MetricsRegistry()
        reg.gauge(sim, "depth")
        with pytest.raises(MetricError):
            reg.register_callback(sim, "depth", lambda: 1.0)

    def test_callback_kind_validated(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError):
            reg.register_callback(Simulation(), "x", lambda: 1.0, kind="histogram")

    def test_every_key_names_its_universe(self):
        # The registry stamps `sim`; a call site can neither omit nor
        # build it.
        a, b = Simulation(), Simulation()
        reg = MetricsRegistry()
        for sim in (a, b):
            reg.inc(sim, "client.read.ok", client="c0")
            reg.observe(sim, "client.read.latency", 0.01, client="c0")
            reg.set_gauge(sim, "depth", 2.0)
            reg.register_callback(sim, "kernel.events", lambda: 1.0, kind="counter")
            reg.register_multi(sim, "net.link.utilization", lambda: {"a->b": 0.5}, "link")
        reading = reg.read()
        for sim in (a, b):
            assert reading["counters"][f"client.read.ok{{client=c0,sim={sim.id}}}"] == 1.0
            assert f"client.read.latency{{client=c0,sim={sim.id}}}" in reading["histograms"]
            assert reading["gauges"][f"depth{{sim={sim.id}}}"] == 2.0
            assert reading["counters"][f"kernel.events{{sim={sim.id}}}"] == 1.0
            assert reading["gauges"][f"net.link.utilization{{link=a->b,sim={sim.id}}}"] == 0.5
        with pytest.raises(TypeError):
            reg.inc(a, "client.read.ok", sim="9")


class TestScrape:
    def test_row_shape_is_valid(self):
        sim = Simulation()
        reg = MetricsRegistry()
        reg.inc(sim, "events", 5)
        reg.set_gauge(sim, "depth", 3.0)
        reg.observe(sim, "lat", 0.01)
        row = reg.scrape(sim)
        validate_snapshot_row(row)
        assert row["schema"] == SCHEMA
        assert row["sim"] == sim.id
        assert row["counters"][f"events{{sim={sim.id}}}"] == 5.0
        assert row["gauges"][f"depth{{sim={sim.id}}}"] == 3.0
        assert row["histograms"][f"lat{{sim={sim.id}}}"]["count"] == 1

    def test_unset_gauges_and_empty_histograms_omitted(self):
        sim = Simulation()
        reg = MetricsRegistry()
        reg.gauge(sim, "never_set")
        reg.histogram(sim, "never_observed")
        row = reg.scrape(sim)
        assert row["gauges"] == {}
        assert row["histograms"] == {}

    def test_callbacks_evaluated_at_scrape_time(self):
        sim = Simulation()
        reg = MetricsRegistry()
        state = {"depth": 0}
        reg.register_callback(sim, "kernel.depth", lambda: state["depth"])
        reg.register_callback(
            sim, "kernel.events", lambda: state["depth"] * 10, kind="counter"
        )
        state["depth"] = 7
        row = reg.scrape(sim)
        assert row["gauges"][f"kernel.depth{{sim={sim.id}}}"] == 7.0
        assert row["counters"][f"kernel.events{{sim={sim.id}}}"] == 70.0

    def test_multi_callback_merges_canonical_keys(self):
        sim = Simulation()
        reg = MetricsRegistry()
        links = {"a->b": 0.5}
        reg.register_multi(sim, "net.link.utilization", lambda: links, "link")
        row = reg.scrape(sim)
        assert row["gauges"] == {f"net.link.utilization{{link=a->b,sim={sim.id}}}": 0.5}
        links["b->c"] = 1  # the key set may vary between scrapes
        row = reg.scrape(sim)
        assert row["gauges"][f"net.link.utilization{{link=b->c,sim={sim.id}}}"] == 1.0

    def test_windowed_counter_reset_semantics(self):
        # A counter reset between scrapes must still yield the correct
        # per-window delta via counter_delta (Prometheus rate() rules).
        sim = Simulation()
        reg = MetricsRegistry()
        c = reg.counter(sim, "io")
        key = f"io{{sim={sim.id}}}"
        c.inc(10)
        r0 = reg.scrape(sim)
        c.reset()
        c.inc(4)
        r1 = reg.scrape(sim)
        assert counter_delta(r0["counters"][key], r1["counters"][key]) == 4.0
        c.inc(1)
        r2 = reg.scrape(sim)
        assert counter_delta(r1["counters"][key], r2["counters"][key]) == 1.0

    def test_reset_clears_everything(self):
        sim = Simulation()
        reg = MetricsRegistry()
        reg.inc(sim, "c")
        reg.register_callback(sim, "cb", lambda: 1.0)
        reg.register_multi(sim, "m", dict, "k")
        reg.scrape(sim)
        reg.reset()
        assert reg.rows == []
        row = reg.scrape(sim)
        assert row["counters"] == {}
        # The callback slot is free again after a reset.
        reg.register_callback(sim, "cb", lambda: 2.0)

    def test_reset_rewinds_universe_ids(self):
        # Back-to-back runs in one process number their universes as a
        # fresh process would.
        reg = MetricsRegistry()
        reg.reset()
        first = [Simulation().id for _ in range(3)]
        reg.reset()
        assert [Simulation().id for _ in range(3)] == first == [1, 2, 3]


class TestCollector:
    def test_scrapes_on_sim_cadence(self):
        sim = Simulation()
        reg = MetricsRegistry()
        reg.enable()
        reg.inc(sim, "ticks")
        Collector(sim, reg, interval=0.5).start()

        def run():
            yield sim.timeout(2.0)

        sim.run(until=sim.process(run()))
        # Immediate scrape at t=0, then every 0.5s until the run ends.
        times = [row["t"] for row in reg.rows]
        assert times[0] == 0.0
        assert times == sorted(times)
        assert len(reg.rows) >= 4
        for row in reg.rows:
            validate_snapshot_row(row)

    def test_rows_tagged_with_sim_id(self):
        reg = MetricsRegistry()
        for _ in range(2):
            sim = Simulation()
            reg.scrape(sim)
        assert reg.rows[0]["sim"] != reg.rows[1]["sim"]
