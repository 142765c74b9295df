"""Tests for the fluid flow engine."""

import pytest

from repro.net import FlowEngine, Network, TcpModel
from repro.sim import Simulation
from repro.util.units import GB, Gbps, MB


def line(rate=Gbps(1), delay=0.0, efficiency=1.0):
    """Two hosts joined by one duplex link."""
    net = Network()
    net.add_node("a")
    net.add_node("b")
    net.add_link("a", "b", rate, delay=delay, efficiency=efficiency)
    return net


def make_engine(net, sim=None):
    sim = sim or Simulation()
    return sim, FlowEngine(sim, net, default_tcp=TcpModel(window=GB(1)))


class TestSingleFlow:
    def test_transfer_time_is_size_over_rate(self):
        net = line(rate=MB(100))
        sim, eng = make_engine(net)
        evt = eng.transfer("a", "b", MB(100))
        sim.run(until=evt)
        assert sim.now == pytest.approx(1.0)

    def test_propagation_delay_added_at_completion(self):
        net = line(rate=MB(100), delay=0.040)
        sim, eng = make_engine(net)
        evt = eng.transfer("a", "b", MB(100))
        sim.run(until=evt)
        assert sim.now == pytest.approx(1.0 + 0.040)

    def test_zero_byte_transfer_takes_delay_only(self):
        net = line(delay=0.020)
        sim, eng = make_engine(net)
        evt = eng.transfer("a", "b", 0)
        sim.run(until=evt)
        assert sim.now == pytest.approx(0.020)

    def test_zero_byte_multi_hop_sums_propagation_delays(self):
        net = Network()
        for n in ("a", "sw", "b"):
            net.add_node(n)
        net.add_link("a", "sw", MB(100), delay=0.010, efficiency=1.0)
        net.add_link("sw", "b", MB(100), delay=0.025, efficiency=1.0)
        sim, eng = make_engine(net)
        evt = eng.transfer("a", "b", 0)
        sim.run(until=evt)
        assert sim.now == pytest.approx(0.035)
        assert eng.active_count == 0
        assert eng.bytes_moved == 0

    def test_zero_byte_transfer_does_not_disturb_active_flows(self):
        # A zero-byte "transfer" is pure signalling: it never registers a
        # flow, so the sharing (and finish time) of real flows is unchanged.
        net = line(rate=MB(100), delay=0.020)
        sim, eng = make_engine(net)
        e1 = eng.transfer("a", "b", MB(100))

        def ping(sim):
            yield sim.timeout(0.25)
            assert eng.active_count == 1
            evt = eng.transfer("a", "b", 0)
            yield evt
            assert sim.now == pytest.approx(0.25 + 0.020)
            assert eng.active_count == 1  # still just the real flow

        sim.process(ping(sim))
        sim.run(until=e1)
        assert sim.now == pytest.approx(1.0 + 0.020)

    def test_link_efficiency_respected(self):
        net = line(rate=MB(100), efficiency=0.5)
        sim, eng = make_engine(net)
        evt = eng.transfer("a", "b", MB(100))
        sim.run(until=evt)
        assert sim.now == pytest.approx(2.0)

    def test_loopback_uses_local_rate(self):
        net = line()
        sim = Simulation()
        eng = FlowEngine(sim, net, local_rate=MB(200), default_tcp=TcpModel(window=GB(1)))
        evt = eng.transfer("a", "a", MB(100))
        sim.run(until=evt)
        assert sim.now == pytest.approx(0.5)

    def test_negative_bytes_rejected(self):
        net = line()
        sim, eng = make_engine(net)
        with pytest.raises(ValueError):
            eng.transfer("a", "b", -1)

    @pytest.mark.parametrize("kwargs, what", [
        ({"nbytes": float("nan")}, "nbytes must be finite and non-negative, got nan"),
        ({"nbytes": float("inf")}, "nbytes must be finite and non-negative, got inf"),
        ({"nbytes": -1.0}, "nbytes must be finite and non-negative, got -1.0"),
        ({"cap": float("nan")}, "cap must be positive, got nan"),
        ({"cap": 0.0}, "cap must be positive, got 0.0"),
        ({"cap": -5.0}, "cap must be positive, got -5.0"),
    ], ids=["nan-bytes", "inf-bytes", "negative-bytes", "nan-cap", "zero-cap",
            "negative-cap"])
    def test_bad_transfer_rejected_before_any_state_changes(self, kwargs, what):
        net = line(rate=MB(100))
        sim, eng = make_engine(net)
        args = {"nbytes": MB(100), "tags": ("t",), **kwargs}
        with pytest.raises(ValueError, match=f"transfer a->b: {what}"):
            eng.transfer("a", "b", **args)
        assert eng.active_count == 0
        evt = eng.transfer("a", "b", MB(100), tags=("t",))
        sim.run(until=evt)
        assert sim.now == pytest.approx(1.0)
        assert eng.completed_flows == 1
        assert eng.tag_rate_series("t").values[-2:] == [MB(100), 0.0]

    def test_counters(self):
        net = line(rate=MB(100))
        sim, eng = make_engine(net)
        evt = eng.transfer("a", "b", MB(50))
        sim.run(until=evt)
        assert eng.bytes_moved == MB(50)
        assert eng.completed_flows == 1
        assert eng.active_count == 0


class TestSharing:
    def test_two_flows_share_then_speed_up(self):
        # Flow 1: 100 MB; Flow 2: 50 MB. Sharing a 100 MB/s link they get
        # 50 each; flow 2 finishes at t=1, then flow 1 runs at full rate and
        # finishes at t=1.5.
        net = line(rate=MB(100))
        sim, eng = make_engine(net)
        e1 = eng.transfer("a", "b", MB(100))
        e2 = eng.transfer("a", "b", MB(50))
        sim.run(until=e2)
        assert sim.now == pytest.approx(1.0)
        sim.run(until=e1)
        assert sim.now == pytest.approx(1.5)

    def test_late_arrival_slows_first_flow(self):
        net = line(rate=MB(100))
        sim, eng = make_engine(net)
        e1 = eng.transfer("a", "b", MB(100))

        def late(sim):
            yield sim.timeout(0.5)
            yield eng.transfer("a", "b", MB(25))

        sim.process(late(sim))
        sim.run(until=e1)
        # First 0.5s at 100 MB/s (50 MB done); then share 50/50 until the
        # 25 MB flow drains at t=1.0; remaining 25 MB at full rate → t=1.25.
        assert sim.now == pytest.approx(1.25)

    def test_opposite_directions_do_not_share(self):
        net = line(rate=MB(100))
        sim, eng = make_engine(net)
        e1 = eng.transfer("a", "b", MB(100))
        e2 = eng.transfer("b", "a", MB(100))
        sim.run(until=e1)
        assert sim.now == pytest.approx(1.0)
        sim.run(until=e2)
        assert sim.now == pytest.approx(1.0)

    def test_window_cap_limits_single_flow(self):
        # 1 MB window at 100 ms RTT → 10 MB/s on a 100 MB/s link.
        net = line(rate=MB(100), delay=0.050)
        sim = Simulation()
        eng = FlowEngine(sim, net, default_tcp=TcpModel(window=MB(1)))
        evt = eng.transfer("a", "b", MB(10))
        sim.run(until=evt)
        assert sim.now == pytest.approx(1.0 + 0.050)

    def test_parallel_capped_flows_fill_link(self):
        # The paper's central phenomenon: 20 window-capped streams (10 MB/s
        # each) aggregate to the 100 MB/s line rate.
        net = line(rate=MB(100), delay=0.050)
        sim = Simulation()
        eng = FlowEngine(sim, net, default_tcp=TcpModel(window=MB(1)))
        events = [eng.transfer("a", "b", MB(25)) for _ in range(20)]
        for evt in events:
            sim.run(until=evt)
        # 500 MB total at 100 MB/s aggregate = 5 s (+ prop delay).
        assert sim.now == pytest.approx(5.0 + 0.050)


class TestTagSeries:
    def test_rate_trace_recorded(self):
        net = line(rate=MB(100))
        sim, eng = make_engine(net)
        evt = eng.transfer("a", "b", MB(100), tags=("wan",))
        sim.run(until=evt)
        series = eng.tag_rate_series("wan")
        assert series.values[0] == pytest.approx(MB(100))
        assert series.values[-1] == 0.0

    def test_tag_sums_concurrent_flows(self):
        net = line(rate=MB(100))
        sim, eng = make_engine(net)
        eng.transfer("a", "b", MB(100), tags=("wan",))
        eng.transfer("a", "b", MB(100), tags=("wan",))
        sim.run(until=sim.timeout(0.1))
        series = eng.tag_rate_series("wan")
        assert series.values[0] == pytest.approx(MB(100))  # both flows sum


class TestMultiHop:
    def test_shared_trunk_bottleneck(self):
        # Two site hosts funnel through a 100 MB/s trunk.
        net = Network()
        for n in ["h1", "h2", "sw1", "sw2", "dst"]:
            net.add_node(n)
        net.add_link("h1", "sw1", MB(1000), efficiency=1.0)
        net.add_link("h2", "sw1", MB(1000), efficiency=1.0)
        net.add_link("sw1", "sw2", MB(100), efficiency=1.0)
        net.add_link("sw2", "dst", MB(1000), efficiency=1.0)
        sim, eng = make_engine(net)
        e1 = eng.transfer("h1", "dst", MB(50))
        e2 = eng.transfer("h2", "dst", MB(50))
        sim.run(until=e1)
        sim.run(until=e2)
        assert sim.now == pytest.approx(1.0)  # 100 MB over shared 100 MB/s
