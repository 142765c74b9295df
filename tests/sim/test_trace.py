"""Tests for the simulation-clock flight recorder (`repro.sim.trace`)."""

import json

import pytest

from repro.sim import Simulation
from repro.sim.trace import Tracer


@pytest.fixture
def tracer():
    t = Tracer()
    t.enable()
    return t


class TestSpans:
    def test_span_records_sim_time_and_duration(self, tracer):
        sim = Simulation()

        def proc(sim):
            sid = tracer.begin(sim, "io", cat="storage", lane="disk0")
            yield sim.timeout(2.5)
            tracer.end(sim, sid)

        sim.process(proc(sim))
        sim.run()
        (ph, t0, dur, pid, lane, name, cat, _args) = tracer._events[0]
        assert (ph, name, cat, lane) == ("X", "io", "storage", "disk0")
        assert pid == sim.id
        assert t0 == 0.0 and dur == pytest.approx(2.5)

    def test_nested_spans_close_in_order(self, tracer):
        sim = Simulation()

        def proc(sim):
            outer = tracer.begin(sim, "outer")
            yield sim.timeout(1.0)
            inner = tracer.begin(sim, "inner")
            yield sim.timeout(1.0)
            tracer.end(sim, inner)
            yield sim.timeout(1.0)
            tracer.end(sim, outer)

        sim.process(proc(sim))
        sim.run()
        # Inner finishes first (enters the ring first) and nests strictly
        # inside the outer span's [t0, t0+dur) window.
        names = [e[5] for e in tracer._events]
        assert names == ["inner", "outer"]
        inner, outer = tracer._events
        assert outer[1] <= inner[1]
        assert inner[1] + inner[2] <= outer[1] + outer[2]
        assert tracer.open_spans == 0

    def test_span_context_manager(self, tracer):
        sim = Simulation()
        with tracer.span(sim, "setup", cat="harness"):
            pass
        assert tracer.events_recorded == 1

    def test_end_unknown_span_raises(self, tracer):
        with pytest.raises(ValueError):
            tracer.end(Simulation(), 999)

    def test_instant_event(self, tracer):
        sim = Simulation()
        tracer.instant(sim, "marker", detail=42)
        assert tracer.instants_recorded == 1

    def test_end_merges_args(self, tracer):
        sim = Simulation()
        sid = tracer.begin(sim, "op", bytes=10)
        tracer.end(sim, sid, status="ok")
        args = tracer._events[0][7]
        assert args == {"bytes": 10, "status": "ok"}


class TestRingBuffer:
    def test_eviction_is_bounded_and_counted(self):
        t = Tracer()
        t.enable(capacity=8)
        sim = Simulation()
        for i in range(20):
            t.instant(sim, f"e{i}")
        assert len(t._events) == 8
        assert t.events_recorded == 20
        assert t.events_dropped == 12
        # Oldest evicted first: the survivors are the last 8.
        assert t._events[0][5] == "e12"

    def test_enable_resets_state(self):
        t = Tracer()
        t.enable()
        t.instant(Simulation(), "x")
        t.enable()
        assert t.events_recorded == 0 and len(t._events) == 0


class TestDisabledZeroOverhead:
    def test_disabled_tracer_records_nothing(self):
        """Smoke test: a run with TRACE off must leave no recorder state.

        The hot-path contract is one `TRACE.enabled` attribute check per
        site; nothing below this module's API may run when disabled.
        """
        from repro.net import FlowEngine, Network, TcpModel
        from repro.sim.trace import TRACE
        from repro.util.units import Gbps, MB

        assert not TRACE.enabled
        net = Network()
        net.add_node("a")
        net.add_node("b")
        net.add_link("a", "b", Gbps(1))
        sim = Simulation()
        eng = FlowEngine(sim, net, default_tcp=TcpModel(window=MB(64)))
        evts = [eng.transfer("a", "b", MB(10)) for _ in range(20)]
        sim.run(until=sim.all_of(evts))
        assert TRACE.events_recorded == 0
        assert not TRACE.flows
        # cap_kind is only computed under tracing.
        assert eng.completed_flows == 20


class TestFlowRecords:
    def test_lifecycle_and_timeline(self, tracer):
        sim = Simulation()
        tracer.flow_created(sim, 0, "a", "b", 100.0, ("wan",))
        tracer.flow_rate(sim, 0, 10.0, "window/rtt")
        sim.run(until=sim.timeout(4.0))
        tracer.flow_rate(sim, 0, 5.0, "link:a->b")
        sim.run(until=sim.timeout(6.0))
        tracer.flow_drained(sim, 0)
        (rec,) = tracer.flows
        assert rec.t_end == 10.0
        assert rec.timeline() == [
            (0.0, 4.0, 10.0, "window/rtt"),
            (4.0, 10.0, 5.0, "link:a->b"),
        ]

    def test_flow_cap_counts_drops(self):
        t = Tracer()
        t.enable(max_flows=2)
        sim = Simulation()
        for i in range(5):
            t.flow_created(sim, i, "a", "b", 1.0, ())
        assert len(t.flows) == 2 and t.flows_dropped == 3

    def test_bound_summary_time_weighted(self, tracer):
        sim = Simulation()
        tracer.flow_created(sim, 0, "a", "b", 1.0, ())
        tracer.flow_rate(sim, 0, 1.0, "window/rtt")
        sim.run(until=sim.timeout(3.0))
        tracer.flow_drained(sim, 0)
        summary = tracer.bound_summary()
        assert summary["window/rtt"] == {"flows": 1, "sim_seconds": 3.0}

    def test_link_summary_extracts_link_bounds(self, tracer):
        sim = Simulation()
        tracer.flow_created(sim, 0, "a", "b", 1.0, ())
        tracer.flow_rate(sim, 0, 1.0, "link:a->sw")
        sim.run(until=sim.timeout(2.0))
        tracer.flow_drained(sim, 0)
        assert tracer.link_summary() == {
            "a->sw": {"flows": 1, "sim_seconds": 2.0}
        }

    def test_separate_sims_do_not_collide(self, tracer):
        # Two sims reuse flow seq 0; records must stay distinct per pid.
        for _ in range(2):
            sim = Simulation()
            tracer.flow_created(sim, 0, "a", "b", 1.0, ())
            tracer.flow_drained(sim, 0)
        assert len(tracer.flows) == 2
        assert tracer.flows[0].pid != tracer.flows[1].pid

    def test_pid_is_the_universe_id(self, tracer):
        # A universe's pid is the id it took at construction (its metrics
        # `sim` label), not the order in which the recorder first met it.
        first, second = Simulation(), Simulation()
        tracer.instant(second, "b")
        tracer.flow_created(first, 0, "a", "b", 1.0, ())
        tracer.instant(first, "a")
        pids = {
            e["name"]: e["pid"] for e in tracer.to_chrome()["traceEvents"]
            if e["ph"] == "i"
        }
        assert pids == {"a": first.id, "b": second.id}
        assert tracer.flows[0].pid == first.id


class TestExport:
    def test_chrome_trace_is_valid_json_with_required_fields(self, tracer):
        sim = Simulation()
        with tracer.span(sim, "op", cat="storage", lane="disk0", bytes=7):
            pass
        tracer.flow_created(sim, 0, "a", "b", 10.0, ("wan",))
        tracer.flow_rate(sim, 0, 5.0, "window/rtt")
        tracer.flow_drained(sim, 0)
        doc = json.loads(json.dumps(tracer.to_chrome()))
        events = doc["traceEvents"]
        assert events, "exporter produced no events"
        for ev in events:
            assert {"ph", "name", "pid", "tid"} <= set(ev)
            if ev["ph"] != "M":
                assert "ts" in ev
        xs = [e for e in events if e["ph"] == "X"]
        assert xs and xs[0]["dur"] == 0.0
        flow_bounds = [
            e["name"] for e in events
            if e.get("cat") == "flow" and e["ph"] == "b"
        ]
        assert "window/rtt" in flow_bounds

    def test_thread_metadata_names_lanes(self, tracer):
        sim = Simulation()
        with tracer.span(sim, "op", lane="nsd:server3"):
            pass
        meta = [e for e in tracer.to_chrome()["traceEvents"] if e["ph"] == "M"]
        assert any(m["args"]["name"] == "nsd:server3" for m in meta)

    def test_metrics_snapshot_shape(self, tracer):
        sim = Simulation()
        with tracer.span(sim, "op", cat="storage"):
            pass
        snap = tracer.metrics_snapshot()
        assert snap["events"]["recorded"] == 1
        assert snap["spans_by_category"]["storage"]["count"] == 1
        assert set(snap) == {
            "events", "spans_by_category", "flows", "bounds", "links"
        }
        json.dumps(snap)  # must be JSON-serializable as-is
