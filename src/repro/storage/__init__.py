"""Storage substrate: disks, RAID sets, controllers, arrays, FC HBAs.

Models the hardware behind the paper's NSD servers:

* SC'02 — Sun F15K + 30 TB FC disk (QFS/SAM),
* SC'04 — IBM FastT600 StorCloud bricks (160 TB, 15 GB/s on the floor),
* 2005 production — 32 × IBM DS4100: 67 × 250 GB SATA drives each,
  seven 8+P RAID-5 sets per brick, dual 2 Gb/s FC controllers
  (200 MB/s each, paper Figs 1 & 9).

Throughput emerges from a pipeline of rate-limited stages (HBA →
controller → RAID/disks); per-IO latency adds along the chain while
steady-state throughput is set by the slowest stage — matching how the
paper's balanced-configuration arithmetic is done in §5.
"""

from repro.storage.pipes import Pipe
from repro.storage.disk import Disk, DiskSpec, FC_2005, SATA_2005
from repro.storage.raid import RaidSet
from repro.storage.controller import Controller, DS4100_CONTROLLER
from repro.storage.array import Lun, StorageArray, make_ds4100, make_fastt600
from repro.storage.san import Hba

__all__ = [
    "Pipe",
    "Disk",
    "DiskSpec",
    "FC_2005",
    "SATA_2005",
    "RaidSet",
    "Controller",
    "DS4100_CONTROLLER",
    "Lun",
    "StorageArray",
    "make_ds4100",
    "make_fastt600",
    "Hba",
]
