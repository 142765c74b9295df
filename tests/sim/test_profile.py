"""Tests for the simulator's self-profiling counters.

Each counter is an attribute of the object that does the work (kernel,
flow engine, solver). ``report --profile`` totals them per family through
the :data:`repro.obs.OBS` registry (:func:`repro.obs.export.profile_snapshot`).
"""

import pytest

from repro.experiments.report import main
from repro.net import FlowEngine, Network
from repro.obs import OBS, profile_snapshot
from repro.sim import Simulation
from repro.util.units import Gbps, MB


@pytest.fixture
def obs():
    OBS.reset()
    OBS.enable()
    yield OBS
    OBS.disable()
    OBS.reset()


def bare_engine():
    sim = Simulation()
    net = Network()
    net.add_node("a")
    net.add_node("b")
    net.add_link("a", "b", Gbps(1))
    return sim, FlowEngine(sim, net)


def transfer(sim, engine, nflows):
    done = sim.all_of([engine.transfer("a", "b", MB(10)) for _ in range(nflows)])
    sim.run(until=done)


class TestCounters:
    def test_count_accumulates(self, obs):
        # A family's total sums every universe's label set.
        runs = [bare_engine() for _ in range(2)]
        for nflows, (sim, engine) in zip((2, 3), runs):
            transfer(sim, engine, nflows)
        totals = profile_snapshot(obs)["counters"]
        assert totals["flow.completed"] == 5
        assert totals["flow.recomputes"] == sum(e.recomputes for _, e in runs)
        assert totals["flow.active_rows"] == sum(e.active_rows for _, e in runs)
        assert totals["kernel.events"] == sum(s._seq for s, _ in runs)

    def test_disabled_is_noop(self):
        OBS.reset()
        sim, engine = bare_engine()
        transfer(sim, engine, 2)
        assert engine.recomputes > 0  # counted on the engine all the same
        assert profile_snapshot(OBS) == {"counters": {}}

    def test_snapshot_is_a_copy(self, obs):
        sim, engine = bare_engine()
        transfer(sim, engine, 1)
        snap = profile_snapshot(obs)
        transfer(sim, engine, 1)
        assert snap["counters"]["flow.completed"] == 1
        assert profile_snapshot(obs)["counters"]["flow.completed"] == 2

    def test_report_mentions_names(self, capsys):
        assert main(["--quick", "--only", "A3", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "-- profile --" in out
        for family in ("kernel.events", "flow.recomputes", "flow.active_rows"):
            assert family in out
        assert not OBS.enabled and not OBS.read()["counters"]
