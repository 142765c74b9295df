"""Tests for the fault injector: link, loss, and disk actions."""

import pytest

from repro.faults import FaultInjector, FaultSchedule, NodeHealth
from repro.net import FlowEngine, Network, TcpModel
from repro.sim import Simulation
from repro.storage import make_ds4100
from repro.storage.raid import RaidState
from repro.util.units import GB, MB


def line(rate=MB(100)):
    net = Network()
    net.add_node("a")
    net.add_node("b")
    link, _ = net.add_link("a", "b", rate, efficiency=1.0)
    sim = Simulation()
    engine = FlowEngine(sim, net, default_tcp=TcpModel(window=GB(1)))
    return sim, net, engine, link


class TestLinkFaults:
    def test_brownout_and_restore_no_poke_needed(self):
        # 100 MB at 100 MB/s; brownout to 25 MB/s during [0.5, 1.5).
        # 50 MB + 25 MB + 25 MB => finish at 1.75 s. The injector never
        # calls engine.poke(): Link.set_rate triggers the recompute.
        sim, net, engine, link = line()
        schedule = FaultSchedule().brownout_link(
            0.5, "a->b", factor=0.25, duration=1.0
        )
        FaultInjector(sim, schedule, network=net, engine=engine).start()
        evt = engine.transfer("a", "b", MB(100))
        sim.run(until=evt)
        assert sim.now == pytest.approx(1.75)
        assert link.rate == pytest.approx(MB(100))  # restored exactly

    def test_link_down_starves_flow(self):
        sim, net, engine, link = line()
        schedule = FaultSchedule().flap_link(0.5, "a->b", down_for=1.0)
        injector = FaultInjector(sim, schedule, network=net, engine=engine)
        injector.start()
        evt = engine.transfer("a", "b", MB(100))
        sim.run(until=evt)
        # 50 MB before the flap, ~nothing during it, 50 MB after.
        assert sim.now == pytest.approx(2.0, rel=1e-3)
        assert link.rate == pytest.approx(MB(100))
        assert [k for _, k, _ in injector.log] == ["link_down", "link_restore"]

    def test_bidirectional_target(self):
        sim, net, engine, link = line()
        schedule = FaultSchedule().brownout_link(
            0.0, "a<->b", factor=0.5, duration=1.0
        )
        injector = FaultInjector(sim, schedule, network=net, engine=engine)
        injector.start()
        sim.run(until=sim.timeout(0.5))
        for lk in net.links:
            assert lk.rate == pytest.approx(MB(50))
        sim.run(until=sim.timeout(1.0))
        for lk in net.links:
            assert lk.rate == pytest.approx(MB(100))


class TestLossBurst:
    def test_default_tcp_swapped_and_restored(self):
        sim, net, engine, link = line()
        original = engine.default_tcp
        schedule = FaultSchedule().loss_burst(0.5, loss=1e-3, duration=1.0)
        FaultInjector(sim, schedule, network=net, engine=engine).start()
        sim.run(until=sim.timeout(1.0))
        assert engine.default_tcp.loss == pytest.approx(1e-3)
        sim.run(until=sim.timeout(1.0))
        assert engine.default_tcp is original


class TestDiskFail:
    def test_rebuild_steals_controller_bandwidth(self):
        sim = Simulation()
        array = make_ds4100(sim, "ds4100-00")
        schedule = FaultSchedule().fail_disk(0.0, "ds4100-00", lun=0)
        injector = FaultInjector(sim, schedule, arrays={"ds4100-00": array})
        injector.start()
        sim.run(until=sim.timeout(0.1))
        assert array.luns[0].raid.state is RaidState.REBUILDING
        # A sibling LUN on the same controller reads slower than one on
        # the other controller while rebuild traffic flows (luns alternate
        # controllers, so lun 2 shares lun 0's controller; lun 1 does not).
        t0 = sim.now
        sim.run(until=sim.process(array.luns[2].io("read", MB(64))))
        shared = sim.now - t0
        t0 = sim.now
        sim.run(until=sim.process(array.luns[1].io("read", MB(64))))
        unshared = sim.now - t0
        assert shared > unshared

    def test_spare_consumed(self):
        sim = Simulation()
        array = make_ds4100(sim, "ds4100-00")
        spares = array.hot_spares
        schedule = FaultSchedule().fail_disk(0.0, "ds4100-00")
        FaultInjector(sim, schedule, arrays={"ds4100-00": array}).start()
        sim.run(until=sim.timeout(0.1))
        assert array.hot_spares == spares - 1


class TestValidation:
    def test_unknown_link_rejected_at_start(self):
        sim, net, engine, link = line()
        schedule = FaultSchedule().flap_link(1.0, "nope->nada", down_for=1.0)
        with pytest.raises(ValueError, match="no link matching"):
            FaultInjector(sim, schedule, network=net, engine=engine).start()

    def test_node_crash_requires_health(self):
        sim, net, engine, link = line()
        schedule = FaultSchedule().crash_node(1.0, "a")
        with pytest.raises(ValueError, match="NodeHealth"):
            FaultInjector(sim, schedule, network=net, engine=engine).start()

    def test_unknown_array_rejected(self):
        sim = Simulation()
        schedule = FaultSchedule().fail_disk(1.0, "ds9")
        with pytest.raises(ValueError, match="unknown storage array"):
            FaultInjector(sim, schedule, arrays={}).start()

    def test_crash_restart_round_trip(self):
        sim, net, engine, link = line()
        health = NodeHealth(sim)
        schedule = (
            FaultSchedule().crash_node(0.5, "a").restart_node(1.0, "a")
        )
        injector = FaultInjector(sim, schedule, health=health)
        injector.start()
        sim.run(until=sim.timeout(0.75))
        assert not health.is_up("a")
        sim.run(until=sim.timeout(0.5))
        assert health.is_up("a")
        assert injector.done
