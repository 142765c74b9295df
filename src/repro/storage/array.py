"""Storage arrays and LUNs.

A :class:`StorageArray` is a brick (DS4100, FastT600): two controllers,
each owning a share of the RAID sets. A :class:`Lun` is one exported RAID
set reached through its owning controller — an IO passes the controller
stage then the RAID stage, so per-IO latency adds while throughput is set
by whichever stage saturates first (for sequential streams on a DS4100
that is the controller, hence the paper's "200 MB/s per controller"
annotation on Fig 1).

Factories build the paper's configurations:

* :func:`make_ds4100` — 67 × 250 GB SATA, seven 8+P sets + 4 hot spares,
  dual controllers (paper Fig 9: "seven 8+P RAID sets ... remaining unused
  drives function as hot spares").
* :func:`make_fastt600` — the SC'04 StorCloud brick.
"""

from __future__ import annotations

from typing import Generator, List

from repro.sim.kernel import Event, Simulation
from repro.storage.controller import (
    Controller,
    ControllerSpec,
    DS4100_CONTROLLER,
    FASTT600_CONTROLLER,
)
from repro.storage.disk import DiskSpec, FC_2005, SATA_2005
from repro.storage.raid import RaidSet


class Lun:
    """One exported RAID set behind a controller."""

    def __init__(self, name: str, controller: Controller, raid: RaidSet) -> None:
        self.name = name
        self.controller = controller
        self.raid = raid

    @property
    def capacity(self) -> float:
        return self.raid.capacity

    def io(self, kind: str, nbytes: float) -> Generator[Event, None, None]:
        """Controller stage then RAID stage, done when data is on/off media
        (a generator its caller drives with ``yield from``)."""
        yield self.controller.transfer(kind, nbytes)
        yield self.raid.io(kind, nbytes)


class StorageArray:
    """A dual-controller brick exporting one LUN per RAID set."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        controller_spec: ControllerSpec,
        disk_spec: DiskSpec,
        raid_sets: int,
        data_disks: int = 8,
        parity_disks: int = 1,
        hot_spares: int = 0,
    ) -> None:
        if raid_sets < 1:
            raise ValueError("need at least one RAID set")
        self.sim = sim
        self.name = name
        self.disk_spec = disk_spec
        self.hot_spares = hot_spares
        self.controllers = [
            Controller(sim, controller_spec, name=f"{name}.ctrl{i}") for i in range(2)
        ]
        self.luns: List[Lun] = []
        for i in range(raid_sets):
            raid = RaidSet(
                sim,
                disk_spec,
                data_disks=data_disks,
                parity_disks=parity_disks,
                name=f"{name}.r{i}",
            )
            # Alternate RAID sets between the two controllers/loops (Fig 9).
            ctrl = self.controllers[i % 2]
            self.luns.append(Lun(f"{name}.lun{i}", ctrl, raid))

    @property
    def drive_count(self) -> int:
        per_set = self.luns[0].raid.data_disks + self.luns[0].raid.parity_disks
        return len(self.luns) * per_set + self.hot_spares

    def fail_disk(self, lun_index: int):
        """A drive in one RAID set dies; auto-rebuild onto a hot spare.

        Returns the rebuild-complete event when a spare was available
        (Fig 9's "remaining unused drives function as hot spares"), or
        ``None`` if the brick is out of spares and the set stays degraded
        until an operator replaces the drive.
        """
        lun = self.luns[lun_index]
        lun.raid.fail_disk()
        if self.hot_spares > 0 and lun.raid.state.value == "degraded":
            self.hot_spares -= 1
            return lun.raid.rebuild()
        return None

    @property
    def raw_capacity(self) -> float:
        """Raw bytes across all drives including parity and spares."""
        return self.drive_count * self.disk_spec.capacity

    @property
    def usable_capacity(self) -> float:
        return sum(lun.capacity for lun in self.luns)


def make_ds4100(sim: Simulation, name: str) -> StorageArray:
    """The paper's SATA brick: 67 × 250 GB, 7 × (8+P), 4 hot spares."""
    array = StorageArray(
        sim,
        name,
        controller_spec=DS4100_CONTROLLER,
        disk_spec=SATA_2005,
        raid_sets=7,
        data_disks=8,
        parity_disks=1,
        hot_spares=4,
    )
    assert array.drive_count == 67  # 7*9 + 4, per Fig 9
    return array


def make_fastt600(sim: Simulation, name: str) -> StorageArray:
    """SC'04 StorCloud brick: FC drives, dual controllers."""
    return StorageArray(
        sim,
        name,
        controller_spec=FASTT600_CONTROLLER,
        disk_spec=FC_2005,
        raid_sets=8,
        data_disks=8,
        parity_disks=1,
        hot_spares=2,
    )
