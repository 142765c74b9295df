"""Discrete-event simulation kernel.

A small, from-scratch SimPy-style kernel: generator-based processes scheduled
on a binary-heap event queue. Everything time-dependent in the reproduction
(network flows, disk service, NSD RPCs, tape mounts) runs as processes on one
:class:`Simulation`.

Quick tour::

    from repro.sim import Simulation

    sim = Simulation()

    def hello(sim):
        yield sim.timeout(3.0)
        return "done at %.1f" % sim.now

    proc = sim.process(hello(sim))
    sim.run()
    assert sim.now == 3.0 and proc.value.startswith("done")
"""

from repro.sim.kernel import (
    Simulation,
    Event,
    Timeout,
    Process,
    Interrupt,
    AllOf,
    AnyOf,
    SimulationError,
)
from repro.sim.resources import Resource, Container
from repro.sim.rand import RngRegistry
from repro.sim.trace import Tracer, TRACE, FlowRecord

__all__ = [
    "Simulation",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "Resource",
    "Container",
    "RngRegistry",
    "Tracer",
    "TRACE",
    "FlowRecord",
]
