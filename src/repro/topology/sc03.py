"""SC'03: the first native WAN-GPFS demonstration (paper §3, Figs 4–5).

The central GFS lived in the SDSC booth on the Phoenix show floor: 40
two-processor IA64 nodes, each with one FC HBA and GbE, serving a
pre-release WAN-enabled GPFS through a single SciNet 10 GbE uplink to the
TeraGrid backbone. SDSC wrote Enzo data to the floor and both SDSC (32
IA64 visualization nodes) and NCSA read it back. Peak observed: 8.96 Gb/s
on the 10 GbE; >1 GB/s sustained.
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

#: one-way show floor → TeraGrid LA hub delay (Phoenix)
FLOOR_DELAY = 0.004


@dataclass
class Sc03Scenario:
    gfs: Gfs
    floor: Cluster
    sdsc: Cluster
    ncsa: Cluster
    fs: Filesystem
    sdsc_mounts: List[MountedFs] = field(default_factory=list)
    ncsa_mounts: List[MountedFs] = field(default_factory=list)
    writer_mount: MountedFs = None


def build_sc03(
    nsd_servers: int = 40,
    sdsc_viz_nodes: int = 32,
    ncsa_viz_nodes: int = 8,
    block_size: int = MiB(1),
    blocks_per_nsd: int = 4096,
    store_data: bool = False,
    with_disks: bool = True,
    seed: int = 0,
) -> Sc03Scenario:
    """The Fig 4 configuration, scaled by the given node counts."""
    g = Gfs(seed=seed, default_tcp=TUNED_2005)
    net = g.network
    add_teragrid_backbone(net, sites=("sdsc", "ncsa"))
    # the show floor: one switch, one 10 GbE SciNet uplink to the LA hub
    net.add_node("floor-sw", site="floor", kind="switch")
    net.add_link("floor-sw", "la-hub", Gbps(10), delay=FLOOR_DELAY, efficiency=0.94)

    floor = g.add_cluster("floor", site="floor")
    specs = []
    for i in range(nsd_servers):
        name = f"flr-nsd{i:02d}"
        net.add_host(name, "floor-sw", Gbps(1), site="floor")
        floor.add_node(name)
        lun = None
        hba = None
        if with_disks:
            array = make_fastt600(g.sim, f"flr-st{i:02d}")
            lun = array.luns[0]
            hba = Hba(g.sim, name=f"{name}.hba")
        specs.append(
            NsdSpec(server=name, blocks=blocks_per_nsd, lun=lun, hba=hba)
        )
    fs = floor.mmcrfs("gpfs-sc03", specs, block_size=block_size, store_data=store_data)

    sdsc = g.add_cluster("sdsc", site="sdsc")
    sdsc_nodes = []
    for i in range(sdsc_viz_nodes):
        name = f"sdsc-viz{i:02d}"
        net.add_host(name, "sdsc-sw", Gbps(1), site="sdsc")
        sdsc.add_node(name)
        sdsc_nodes.append(name)
    # the DataStar writer that copies Enzo output to the floor
    net.add_host("sdsc-datastar", "sdsc-sw", Gbps(10), site="sdsc")
    sdsc.add_node("sdsc-datastar")

    ncsa = g.add_cluster("ncsa", site="ncsa")
    ncsa_nodes = []
    for i in range(ncsa_viz_nodes):
        name = f"ncsa-viz{i:02d}"
        net.add_host(name, "ncsa-sw", Gbps(1), site="ncsa")
        ncsa.add_node(name)
        ncsa_nodes.append(name)

    # pre-release software: the multi-cluster auth of GPFS 2.3 GA did not
    # exist yet — EMPTY cipher, rsh-style trust (§6.2's starting point)
    floor_pub = floor.mmauth_genkey()
    for importer in (sdsc, ncsa):
        pub = importer.mmauth_genkey()
        floor.mmauth_add(importer.name, pub)
        floor.mmauth_grant(importer.name, "gpfs-sc03", "rw")
        importer.mmremotecluster_add("floor", floor_pub, contact_nodes=[specs[0].server])
        importer.mmremotefs_add("gpfs-sc03", "floor", "gpfs-sc03")

    scenario = Sc03Scenario(gfs=g, floor=floor, sdsc=sdsc, ncsa=ncsa, fs=fs)
    scenario.writer_mount = g.run(
        until=sdsc.mmmount("gpfs-sc03", "sdsc-datastar",
                           tags=("sc03", "sdsc-write"), pagepool_bytes=MiB(512))
    )
    # Read-ahead depth scales with the bandwidth-delay product, as GPFS's
    # prefetch threads do: a GbE client needs RTT * rate / block_size blocks
    # in flight to stay line-rate over the WAN.
    for name in sdsc_nodes:
        scenario.sdsc_mounts.append(
            g.run(until=sdsc.mmmount("gpfs-sc03", name, tags=("sc03", "sdsc-read"),
                                     readahead=12))
        )
    for name in ncsa_nodes:
        scenario.ncsa_mounts.append(
            g.run(until=ncsa.mmmount("gpfs-sc03", name, tags=("sc03", "ncsa-read"),
                                     readahead=24))
        )
    return scenario
