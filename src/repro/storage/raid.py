"""RAID sets (the paper's 8+P RAID-5 groups, Fig 9).

Two fidelity levels, selected per scenario:

* ``detailed=True`` — member :class:`~repro.storage.disk.Disk` objects;
  an IO is chunked across the data disks (plus a parity chunk on writes)
  and completes when every member completes. Used by unit tests and small
  scenarios.
* ``detailed=False`` (default) — one aggregate pipe whose rate is derived
  from the member spec: ``data_disks × disk_rate`` for reads,
  ``data_disks × disk_rate × D/(D+P)`` for full-stripe writes (parity
  share), halved again for partial-stripe (read-modify-write) writes.
  Used by the large scenarios where per-disk events would dominate run
  time without changing the bottleneck arithmetic.
"""

from __future__ import annotations

import enum
from typing import Generator, List, Optional

from repro.sim.kernel import Event, Simulation
from repro.sim.trace import TRACE
from repro.storage.disk import Disk, DiskSpec
from repro.storage.pipes import Pipe
from repro.util.units import KiB, MB


class RaidState(enum.Enum):
    HEALTHY = "healthy"
    DEGRADED = "degraded"  # a member lost, parity covering
    REBUILDING = "rebuilding"  # reconstructing onto a spare
    FAILED = "failed"  # more members lost than parity can cover


class DataLossError(RuntimeError):
    """More failures than the parity scheme tolerates."""


class RaidSet:
    """A D+P RAID-5 group of identical drives."""

    def __init__(
        self,
        sim: Simulation,
        spec: DiskSpec,
        data_disks: int = 8,
        parity_disks: int = 1,
        segment: int = KiB(256),
        detailed: bool = False,
        name: str = "raid",
    ) -> None:
        if data_disks < 1 or parity_disks < 0:
            raise ValueError("need >=1 data disk and >=0 parity disks")
        if segment <= 0:
            raise ValueError("segment must be positive")
        self.sim = sim
        self.spec = spec
        self.data_disks = data_disks
        self.parity_disks = parity_disks
        self.segment = segment
        self.detailed = detailed
        self.name = name
        self.capacity = data_disks * spec.capacity
        self.bytes_read = 0.0
        self.bytes_written = 0.0
        self.state = RaidState.HEALTHY
        self.failed_members = 0
        #: service-rate multiplier while degraded (reconstruction reads every
        #: surviving member) and during rebuild (spindles shared with the
        #: rebuild stream)
        self.degraded_factor = 0.55
        self.rebuilding_factor = 0.70
        self.rebuild_rate = MB(25)  # per-spindle reconstruction write rate

        self.disks: List[Disk] = []
        self._agg_pipe: Optional[Pipe] = None
        if detailed:
            self.disks = [
                Disk(sim, spec, name=f"{name}.d{i}")
                for i in range(data_disks + parity_disks)
            ]
        else:
            # Aggregate stage at the set's read rate; writes are scaled per-IO.
            self._agg_pipe = Pipe(
                sim, data_disks * spec.read_rate, name=f"{name}.agg"
            )

    @property
    def full_stripe(self) -> int:
        """Bytes in one full stripe (data portion)."""
        return self.data_disks * self.segment

    # -- rate arithmetic (used by aggregate mode and by capacity planners) ----

    def read_rate(self) -> float:
        return self.data_disks * self.spec.read_rate

    def write_rate(self, nbytes: float) -> float:
        """Effective client-visible write rate for one IO of ``nbytes``."""
        total = self.data_disks + self.parity_disks
        base = self.data_disks * self.spec.write_rate
        if self.parity_disks == 0:
            return base
        parity_eff = self.data_disks / total
        if nbytes >= self.full_stripe:
            return base * parity_eff
        # Partial stripe: read-modify-write roughly doubles member work.
        return base * parity_eff / 2.0

    # -- failure & rebuild -------------------------------------------------------

    @property
    def service_factor(self) -> float:
        """Current service-rate multiplier for the set's state."""
        if self.state is RaidState.DEGRADED:
            return self.degraded_factor
        if self.state is RaidState.REBUILDING:
            return self.rebuilding_factor
        return 1.0

    def fail_disk(self) -> None:
        """A member drive dies.

        Within the parity budget the set degrades (reads reconstruct from
        the survivors); past it the set fails and IO raises
        :class:`DataLossError`.
        """
        self.failed_members += 1
        if self.failed_members > self.parity_disks:
            self.state = RaidState.FAILED
        else:
            self.state = RaidState.DEGRADED

    def rebuild(self) -> Event:
        """Reconstruct the failed member onto a spare.

        Duration = member capacity / rebuild rate (hours for 2005 SATA —
        the window the hot spares of Fig 9 exist to shorten). The set
        serves IO throughout at ``rebuilding_factor`` speed.
        """
        if self.state is RaidState.FAILED:
            raise DataLossError(f"{self.name}: cannot rebuild, data lost")
        if self.state is not RaidState.DEGRADED:
            raise ValueError(f"{self.name}: nothing to rebuild")
        self.state = RaidState.REBUILDING
        duration = self.spec.capacity / self.rebuild_rate

        def _proc():
            yield self.sim.timeout(duration)
            self.failed_members -= 1
            self.state = (
                RaidState.HEALTHY if self.failed_members == 0 else RaidState.DEGRADED
            )
            return duration

        return self.sim.process(_proc(), name=f"{self.name}-rebuild")

    # -- IO ---------------------------------------------------------------------

    def io(self, kind: str, nbytes: float, sequential: bool = True) -> Event:
        if kind not in ("read", "write"):
            raise ValueError(f"kind must be 'read' or 'write', got {kind!r}")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self.state is RaidState.FAILED:
            raise DataLossError(f"{self.name}: RAID set failed, data lost")
        if kind == "read":
            self.bytes_read += nbytes
        else:
            self.bytes_written += nbytes
        if self.detailed:
            return self.sim.process(
                self._detailed_io(kind, nbytes, sequential), name=f"{self.name}-{kind}"
            )
        pipe = self._agg_pipe
        rate = self.read_rate() if kind == "read" else self.write_rate(nbytes)
        rate *= self.service_factor
        # Express the IO as read-rate-equivalent bytes so one pipe can carry
        # both kinds while preserving each kind's service time.
        return pipe.transfer(
            nbytes * (pipe.rate / rate),
            extra_latency=0.0 if sequential else self.spec.seek_time,
        )

    def _detailed_io(
        self, kind: str, nbytes: float, sequential: bool
    ) -> Generator[Event, None, None]:
        if nbytes == 0:
            yield self.sim.timeout(0.0)
            return
        tr = TRACE if TRACE.enabled else None
        sid = tr.begin(self.sim, f"stripe.{kind}", cat="storage.service",
                       lane=f"raid:{self.name}", bytes=nbytes,
                       state=self.state.value) if tr else 0
        chunk = nbytes / self.data_disks
        # Degraded/rebuilding sets do extra member work (reconstruction
        # reads every survivor; the rebuild stream steals spindle time);
        # expressed as inflated per-member bytes at the current factor.
        chunk /= self.service_factor
        events = []
        rmw = kind == "write" and self.parity_disks > 0 and nbytes < self.full_stripe
        member_bytes = chunk * 2 if rmw else chunk  # RMW: read old + write new
        survivors = self.disks[self.failed_members :] if self.failed_members else self.disks
        data_members = survivors[: self.data_disks]
        parity_members = survivors[self.data_disks :]
        for disk in data_members:
            events.append(disk.io(kind, member_bytes, sequential))
        if kind == "write" and parity_members:
            parity_bytes = chunk * len(parity_members)
            for disk in parity_members:
                events.append(disk.io("write", member_bytes if rmw else parity_bytes, sequential))
        yield self.sim.all_of(events)
        if sid:
            tr.end(self.sim, sid)
