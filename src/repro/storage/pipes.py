"""Rate-limited service stages.

A :class:`Pipe` is the building block of the storage path: a stage that
serves one request at a time (or ``capacity`` in parallel) at a fixed
byte rate with optional per-IO latency. Chaining pipes gives additive
latency and bottleneck-limited throughput, which is exactly the
balanced-configuration arithmetic the paper applies to its NSD servers
(GbE in, FC out, controller behind).

It is also the only code that queues, serves and traces a stage IO, in
one routine that spawns no process: a :class:`~repro.storage.disk.Disk`
IO and an aggregate :class:`~repro.storage.raid.RaidSet` IO are
:meth:`Pipe.transfer` calls (the seek as ``extra_latency``), and every
IO records a ``wait`` and a ``service`` span on the ``pipe:<name>`` lane
under tracing.
"""

from __future__ import annotations

from repro.sim.kernel import Event, Simulation
from repro.sim.resources import Resource
from repro.sim.trace import TRACE


class Pipe:
    """A queued, rate-limited stage."""

    def __init__(
        self,
        sim: Simulation,
        rate: float,
        per_io_latency: float = 0.0,
        capacity: int = 1,
        name: str = "pipe",
    ) -> None:
        if rate <= 0:
            raise ValueError(f"pipe rate must be positive, got {rate}")
        if per_io_latency < 0:
            raise ValueError("per_io_latency must be non-negative")
        self.sim = sim
        self.rate = float(rate)
        self.per_io_latency = float(per_io_latency)
        self.name = name
        self._res = Resource(sim, capacity=capacity, name=name)
        self.bytes_served = 0.0
        self.ios_served = 0

    def service_time(self, nbytes: float) -> float:
        """Time to serve ``nbytes`` once granted."""
        return self.per_io_latency + nbytes / self.rate

    def transfer(self, nbytes: float, extra_latency: float = 0.0) -> Event:
        """Queue ``nbytes`` through the stage; fires when served.

        ``extra_latency`` is added to this IO's service time once the
        slot is granted (a disk's seek on random access). The slot is
        requested at the call, so IOs hold it in call order; the grant
        starts one service timer, and the timer releases the slot and
        fires the returned event. No process is spawned.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        sim = self.sim
        res = self._res
        done = Event(sim, name=f"{self.name}-xfer")
        req = res.request()
        # One enabled-check per IO; queue wait and service become separate
        # spans so traces show where a stage's latency actually went.
        tr = TRACE if TRACE.enabled else None
        lane = f"pipe:{self.name}" if tr else ""
        wid = tr.begin(sim, "wait", cat="storage.queue", lane=lane,
                       bytes=nbytes) if tr else 0
        sid = 0

        def served() -> None:
            if tr:
                tr.end(sim, sid)
            res.release(req)
            self.bytes_served += nbytes
            self.ios_served += 1
            done.succeed()

        def granted(_req: Event) -> None:
            nonlocal sid
            if tr:
                tr.end(sim, wid)
                sid = tr.begin(sim, "service", cat="storage.service",
                               lane=lane, bytes=nbytes)
            sim.schedule_callback(extra_latency + self.service_time(nbytes), served)

        req.callbacks.append(granted)
        return done

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting (not being served)."""
        return len(self._res.queue)
