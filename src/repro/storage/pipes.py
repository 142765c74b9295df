"""Rate-limited service stages.

A :class:`Pipe` is the building block of the storage path: a stage that
serves one request at a time (or ``capacity`` in parallel) at a fixed
byte rate with optional per-IO latency. Chaining pipes gives additive
latency and bottleneck-limited throughput, which is exactly the
balanced-configuration arithmetic the paper applies to its NSD servers
(GbE in, FC out, controller behind).

It is also the only code that queues, serves and traces a stage IO: a
:class:`~repro.storage.disk.Disk` IO and an aggregate
:class:`~repro.storage.raid.RaidSet` IO are :meth:`Pipe.transfer` calls
(the seek as ``extra_latency``), and every IO records a ``wait`` and a
``service`` span on the ``pipe:<name>`` lane under tracing, whether it
took the process path or :meth:`Pipe.fast_transfer`.
"""

from __future__ import annotations

from typing import Generator

from repro.sim.kernel import Event, Simulation
from repro.sim.resources import Request, Resource
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
        slot is granted (a disk's seek on random access).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.sim.process(
            self._serve(nbytes, extra_latency), name=f"{self.name}-xfer"
        )

    def _serve(
        self, nbytes: float, extra_latency: float
    ) -> Generator[Event, None, None]:
        # One enabled-check per IO; queue wait and service become separate
        # spans so traces show where a stage's latency actually went.
        tr = TRACE if TRACE.enabled else None
        lane = f"pipe:{self.name}"
        with self._res.request() as req:
            wid = tr.begin(self.sim, "wait", cat="storage.queue", lane=lane,
                           bytes=nbytes) if tr else 0
            yield req
            if wid:
                tr.end(self.sim, wid)
            sid = tr.begin(self.sim, "service", cat="storage.service",
                           lane=lane, bytes=nbytes) if tr else 0
            yield self.sim.timeout(extra_latency + self.service_time(nbytes))
            if sid:
                tr.end(self.sim, sid)
        self.bytes_served += nbytes
        self.ios_served += 1

    def fast_transfer(self, nbytes: float, callback) -> bool:
        """Serve ``nbytes`` through an *idle* stage without a process.

        When a slot is free and nobody is queued, the slot is taken
        synchronously (no grant event) and ``callback()`` runs after the
        service time — one kernel event instead of the process + request +
        timeout chain of :meth:`transfer`. Service completes at exactly
        the sim time the slow path would have used, contenders arriving
        meanwhile queue behind the held slot as usual, and under tracing
        the IO records the spans :meth:`transfer` records for an idle
        stage (a zero-length wait, then the service). Returns False
        (doing nothing) when the stage is busy — the caller must fall
        back to :meth:`transfer`.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        res = self._res
        if res.queue or len(res.users) >= res.capacity:
            return False
        # Untriggered Request: valid for release(), never enters the heap.
        req = Request(res)
        res.users.append(req)
        sim = self.sim
        sid = 0
        if TRACE.enabled:
            lane = f"pipe:{self.name}"
            TRACE.end(sim, TRACE.begin(sim, "wait", cat="storage.queue",
                                       lane=lane, bytes=nbytes))
            sid = TRACE.begin(sim, "service", cat="storage.service",
                              lane=lane, bytes=nbytes)

        def _served() -> None:
            if sid:
                TRACE.end(sim, sid)
            self.bytes_served += nbytes
            self.ios_served += 1
            res.release(req)
            callback()

        sim.schedule_callback(
            self.service_time(nbytes), _served, name=f"{self.name}-fastxfer"
        )
        return True

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting (not being served)."""
        return len(self._res.queue)
