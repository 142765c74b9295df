"""SAN plumbing: Fibre Channel HBAs.

The NSD servers reach the bricks through FC Host Bus Adapters (one 2 Gb/s
HBA per server in the 2005 production build; three per server at SC'04).
A 2 Gb/s FC link carries ~200 MB/s of payload after 8b/10b coding. The
Brocade fabric between them is non-blocking at the paper's port counts,
so it is not modelled: a server's SAN leg is its HBA stage, then its
LUN's controller and RAID stages (:meth:`repro.core.nsd.NsdServer.disk_io`).
"""

from __future__ import annotations

from repro.sim.kernel import Event, Simulation
from repro.storage.pipes import Pipe
from repro.util.units import MB

#: Payload rate of one 2 Gb/s FC link after 8b/10b coding.
FC2_RATE = MB(200)


class Hba:
    """A server's FC port: both directions share the link budget."""

    def __init__(self, sim: Simulation, ports: int = 1, name: str = "hba") -> None:
        if ports < 1:
            raise ValueError("ports must be >= 1")
        self.sim = sim
        self.ports = ports
        self._pipe = Pipe(sim, FC2_RATE * ports, name=name)

    def transfer(self, nbytes: float) -> Event:
        return self._pipe.transfer(nbytes)

    @property
    def rate(self) -> float:
        return self._pipe.rate
