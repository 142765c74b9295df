"""SC'02: the FCIP hardware-assist demonstration (paper §2, Figs 1–2).

San Diego: ~30 TB of FC disk behind a Sun F15K running QFS/SAM, exported
with SANergy over a Storage Area Network. Two pairs of Nishan 4000 boxes
encode FC frames into IP and ride a 10 Gb/s SDSC → Baltimore path (4 GbE
channels per box pair → 8 Gb/s usable max). Measured RTT: 80 ms.

There is no GPFS here: SANergy lets the remote host issue *block* reads
straight to the SAN, so the data path is SCSI-command round trips over the
tunnel with a fixed number of outstanding commands — which is exactly why
the demonstration sustained ~720 MB/s of the 8 Gb/s ceiling (8 × 8 MB
commands pipelined over an 80 ms RTT path land at ~90 MB/s each).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

from repro.net.fcip import FcipTunnel, add_fcip_tunnel
from repro.net.flow import FlowEngine
from repro.net.message import MessageService
from repro.net.tcp import TcpModel
from repro.net.topology import Network
from repro.sim.kernel import Event, Simulation
from repro.storage.array import StorageArray
from repro.storage.controller import ControllerSpec
from repro.storage.disk import FC_2005
from repro.util.timeseries import RateMeter
from repro.util.units import GB, MB, MiB

#: One-way SDSC → Baltimore propagation delay (measured 80 ms RTT).
ONE_WAY_DELAY = 0.040


@dataclass
class Sc02Scenario:
    sim: Simulation
    network: Network
    engine: FlowEngine
    messages: MessageService
    tunnel: FcipTunnel
    array: StorageArray
    client: "SanergyClient"


class SanergyClient:
    """A SANergy host in Baltimore reading blocks over the extended SAN."""

    def __init__(
        self,
        sim: Simulation,
        engine: FlowEngine,
        messages: MessageService,
        array: StorageArray,
        local_node: str = "baltimore-sf6800",
        san_node: str = "sdsc-san",
        command_bytes: int = MiB(8),
        outstanding: int = 8,
    ) -> None:
        if outstanding < 1 or command_bytes < 1:
            raise ValueError("outstanding and command_bytes must be >= 1")
        self.sim = sim
        self.engine = engine
        self.messages = messages
        self.array = array
        self.local_node = local_node
        self.san_node = san_node
        self.command_bytes = command_bytes
        self.outstanding = outstanding
        self.meter = RateMeter(window=1.0, name="sc02-read")

    def stream_read(self, nbytes: float) -> Event:
        """Read ``nbytes`` with a fixed window of outstanding SCSI commands."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        return self.sim.process(self._stream(nbytes), name="sanergy-read")

    def _one_command(self, lun_idx: int, size: float) -> Generator[Event, None, None]:
        # SCSI command out (latency only), disk service, data frames back.
        yield self.messages.send(self.local_node, self.san_node, nbytes=512)
        lun = self.array.luns[lun_idx % len(self.array.luns)]
        yield from lun.io("read", size)
        yield self.engine.transfer(
            self.san_node, self.local_node, size, tags=("sc02",)
        )
        self.meter.record(self.sim.now, size)

    def _stream(self, nbytes: float) -> Generator[Event, None, None]:
        remaining = nbytes
        in_flight: List[Event] = []
        lun_idx = 0
        while remaining > 0 or in_flight:
            while remaining > 0 and len(in_flight) < self.outstanding:
                size = min(self.command_bytes, remaining)
                remaining -= size
                in_flight.append(
                    self.sim.process(
                        self._one_command(lun_idx, size), name="scsi-cmd"
                    )
                )
                lun_idx += 1
            finished = yield self.sim.any_of(in_flight)
            in_flight = [e for e in in_flight if e not in finished]


def build_sc02(
    sim: Simulation | None = None,
    nishan_pairs: int = 2,
    outstanding: int = 12,
    command_bytes: int = MiB(8),
) -> Sc02Scenario:
    """The Fig 1 configuration."""
    sim = sim or Simulation()
    net = Network()
    net.add_node("sdsc-san", site="sdsc", kind="switch")  # Brocade + QFS server
    net.add_node("baltimore-sf6800", site="baltimore", kind="host")
    tunnel = add_fcip_tunnel(
        net, "sdsc-san", "baltimore-sf6800", wan_delay=ONE_WAY_DELAY, pairs=nishan_pairs
    )
    engine = FlowEngine(sim, net, default_tcp=TcpModel(window=float(GB(1))))
    messages = MessageService(sim, net)
    # The QFS disk cache: FC drives behind fast controllers; sized so the
    # spindles are never the bottleneck (the paper's 17-30 TB farm wasn't).
    array = StorageArray(
        sim,
        "qfs-cache",
        controller_spec=ControllerSpec("sun-t3", read_rate=MB(400), write_rate=MB(300)),
        disk_spec=FC_2005,
        raid_sets=16,
        data_disks=8,
        parity_disks=1,
    )
    client = SanergyClient(
        sim,
        engine,
        messages,
        array,
        command_bytes=command_bytes,
        outstanding=outstanding,
    )
    return Sc02Scenario(
        sim=sim,
        network=net,
        engine=engine,
        messages=messages,
        tunnel=tunnel,
        array=array,
        client=client,
    )
