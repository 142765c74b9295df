"""Individual disk drives, 2005 vintage.

A disk serves one IO at a time: positioning time (seek + rotational
latency, skipped for sequential access) plus media transfer at the
sustained rate. Two period-correct profiles:

* :data:`FC_2005` — 10k RPM FC drives as in the SC'02 QFS cache,
* :data:`SATA_2005` — the 250 GB 7.2k SATA drives of the DS4100 bricks
  whose price/capacity made the 0.5 PB purchase possible (paper §5).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.kernel import Event, Simulation
from repro.storage.pipes import Pipe
from repro.util.units import GB, MB


@dataclass(frozen=True)
class DiskSpec:
    """Physical parameters of a drive model."""

    name: str
    capacity: float
    read_rate: float
    write_rate: float
    seek_time: float  # average positioning time for random access

    def __post_init__(self) -> None:
        if self.capacity <= 0 or self.read_rate <= 0 or self.write_rate <= 0:
            raise ValueError("capacity and rates must be positive")
        if self.seek_time < 0:
            raise ValueError("seek_time must be non-negative")


#: 73 GB 10k RPM Fibre Channel drive.
FC_2005 = DiskSpec(
    name="fc-10k-73gb",
    capacity=GB(73),
    read_rate=MB(89),
    write_rate=MB(85),
    seek_time=5.4e-3,
)

#: 250 GB 7.2k RPM SATA drive (DS4100 member, paper Fig 9).
SATA_2005 = DiskSpec(
    name="sata-7k2-250gb",
    capacity=GB(250),
    read_rate=MB(60),
    write_rate=MB(55),
    seek_time=12.5e-3,
)


class Disk:
    """One spinning drive bound to a simulation."""

    def __init__(self, sim: Simulation, spec: DiskSpec, name: str = "") -> None:
        self.sim = sim
        self.spec = spec
        self.name = name or spec.name
        self._read_pipe = Pipe(sim, spec.read_rate, name=f"{self.name}.r")
        self._write_pipe = Pipe(sim, spec.write_rate, name=f"{self.name}.w")
        # One actuator: reads and writes share the arm. Model with a single
        # exclusive pipe per direction fed by a shared positioner lock is
        # overkill at the simulator's granularity; both pipes share one
        # resource instead.
        self._write_pipe._res = self._read_pipe._res
        self.bytes_read = 0.0
        self.bytes_written = 0.0

    def io(self, kind: str, nbytes: float, sequential: bool = True) -> Event:
        """Submit an IO; the event fires when the media transfer completes."""
        if kind not in ("read", "write"):
            raise ValueError(f"kind must be 'read' or 'write', got {kind!r}")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        pipe = self._read_pipe if kind == "read" else self._write_pipe
        if kind == "read":
            self.bytes_read += nbytes
        else:
            self.bytes_written += nbytes
        return pipe.transfer(
            nbytes, extra_latency=0.0 if sequential else self.spec.seek_time
        )

    def rate(self, kind: str) -> float:
        return self.spec.read_rate if kind == "read" else self.spec.write_rate
