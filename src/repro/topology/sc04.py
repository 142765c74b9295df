"""SC'04: the true grid prototype (paper §4, Figs 7–8).

Pittsburgh show floor: 40 two-way IA64 NSD servers, each with **three** FC
HBAs; 120 × 2 Gb/s FC links to ~160 TB of IBM FastT600 StorCloud disk
(30 GB/s theoretical, ~15 GB/s achieved on the floor). SciNet provided a
30 Gb/s connection — three separate 10 GbE uplinks, each monitored
individually for the Bandwidth Challenge (Fig 8). Enzo ran on DataStar at
SDSC writing straight to the floor; visualization ran at NCSA; a
network-limited sort ran in both directions. GSI authentication was used
for the first time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.client import MountedFs
from repro.core.cluster import Cluster, Gfs, NsdSpec
from repro.core.filesystem import Filesystem
from repro.net.tcp import TUNED_2005
from repro.storage.array import make_fastt600
from repro.storage.san import Hba
from repro.topology.teragrid import add_teragrid_backbone
from repro.util.units import Gbps, MiB

#: one-way show floor → Chicago hub delay (Pittsburgh)
FLOOR_DELAY = 0.006

#: number of SCinet 10 GbE uplinks (Fig 8 monitors each separately)
LANES = 3


@dataclass
class Sc04Scenario:
    gfs: Gfs
    floor: Cluster
    sdsc: Cluster
    ncsa: Cluster
    fs: Filesystem
    lanes: int = LANES
    sdsc_mounts: List[MountedFs] = field(default_factory=list)
    ncsa_mounts: List[MountedFs] = field(default_factory=list)

    def lane_tags(self) -> List[str]:
        return [f"lane{k}" for k in range(self.lanes)]


def build_sc04(
    nsd_servers: int = 40,
    sdsc_clients: int = 24,
    ncsa_clients: int = 24,
    arrays: int = 15,
    block_size: int = MiB(1),
    blocks_per_nsd: int = 8192,
    store_data: bool = False,
    with_disks: bool = True,
    seed: int = 0,
) -> Sc04Scenario:
    """The Fig 7 configuration: StorCloud + 3 SCinet lanes + GSI auth."""
    g = Gfs(seed=seed, default_tcp=TUNED_2005)
    net = g.network
    add_teragrid_backbone(net, sites=("sdsc", "ncsa"))

    # three independent floor switches, one 10 GbE uplink each
    for k in range(LANES):
        net.add_node(f"floor-sw{k}", site="floor", kind="switch")
        net.add_link(
            f"floor-sw{k}", "chi-hub", Gbps(10), delay=FLOOR_DELAY, efficiency=0.94
        )

    floor = g.add_cluster("floor", site="floor")
    bricks = [make_fastt600(g.sim, f"storcloud{i:02d}") for i in range(arrays)] if with_disks else []
    specs: List[NsdSpec] = []
    lun_cursor = 0
    all_luns = [lun for brick in bricks for lun in brick.luns]
    for i in range(nsd_servers):
        name = f"flr-nsd{i:02d}"
        lane = i % LANES
        net.add_host(name, f"floor-sw{lane}", Gbps(1), site="floor")
        floor.add_node(name)
        # 3 FC HBAs per server
        hba = Hba(g.sim, ports=3, name=f"{name}.hba") if with_disks else None
        lun = None
        if all_luns:
            lun = all_luns[lun_cursor % len(all_luns)]
            lun_cursor += 1
        specs.append(
            NsdSpec(
                server=name,
                blocks=blocks_per_nsd,
                lun=lun,
                hba=hba,
                server_tags=(f"lane{lane}",),
            )
        )
    fs = floor.mmcrfs("gpfs-sc04", specs, block_size=block_size, store_data=store_data)

    sdsc = g.add_cluster("sdsc", site="sdsc")
    ncsa = g.add_cluster("ncsa", site="ncsa")
    sdsc_nodes, ncsa_nodes = [], []
    for i in range(sdsc_clients):
        name = f"sdsc-ds{i:03d}"  # DataStar p655 nodes
        net.add_host(name, "sdsc-sw", Gbps(1), site="sdsc")
        sdsc.add_node(name)
        sdsc_nodes.append(name)
    for i in range(ncsa_clients):
        name = f"ncsa-tg{i:03d}"
        net.add_host(name, "ncsa-sw", Gbps(1), site="ncsa")
        ncsa.add_node(name)
        ncsa_nodes.append(name)

    # first outing of the SDSC GSI-flavoured auth (AUTHONLY RSA handshake)
    floor.mmauth_update("AUTHONLY")
    floor_pub = floor.mmauth_genkey()
    for importer in (sdsc, ncsa):
        importer.mmauth_update("AUTHONLY")
        pub = importer.mmauth_genkey()
        floor.mmauth_add(importer.name, pub)
        floor.mmauth_grant(importer.name, "gpfs-sc04", "rw")
        importer.mmremotecluster_add("floor", floor_pub, contact_nodes=[specs[0].server])
        importer.mmremotefs_add("gpfs-sc04", "floor", "gpfs-sc04")

    scenario = Sc04Scenario(gfs=g, floor=floor, sdsc=sdsc, ncsa=ncsa, fs=fs)
    # Per-client prefetch stays at the period default: the demonstration's
    # 24 Gb/s came from *many* clients (the NSD mesh), not per-client
    # tuning — and that is what reproduces Fig 8's 7-9 Gb/s lane variance.
    for name in sdsc_nodes:
        scenario.sdsc_mounts.append(
            g.run(until=sdsc.mmmount("gpfs-sc04", name, tags=("sc04", "sdsc")))
        )
    for name in ncsa_nodes:
        scenario.ncsa_mounts.append(
            g.run(until=ncsa.mmmount("gpfs-sc04", name, tags=("sc04", "ncsa")))
        )
    return scenario
