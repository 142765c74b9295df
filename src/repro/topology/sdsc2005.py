"""The 2005 production Global File System at SDSC (paper §5, Figs 9–11).

0.5 PB of SATA behind 64 two-way IA64 NSD servers:

* 32 IBM DS4100 bricks, 67 × 250 GB SATA each (32 × 67 × 250 GB = 536 TB
  raw), seven 8+P RAID-5 sets per brick, dual 2 Gb/s controllers;
* each NSD server: one GbE NIC (the 64 Gb/s aggregate of the initial
  build; the §8 plan doubles it to 128 Gb/s) and one FC HBA;
* mounted by the TeraGrid cluster and DataStar at SDSC, all 32 nodes at
  ANL, and nodes at NCSA over the TeraGrid WAN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.client import MountedFs
from repro.core.cluster import Cluster, Gfs, NsdSpec
from repro.core.filesystem import Filesystem
from repro.net.tcp import TUNED_2005
from repro.storage.array import StorageArray, make_ds4100
from repro.storage.san import Hba
from repro.topology.teragrid import add_teragrid_backbone
from repro.util.units import Gbps, MiB


@dataclass
class Sdsc2005Scenario:
    gfs: Gfs
    sdsc: Cluster
    fs: Filesystem
    arrays: List[StorageArray]
    #: client node names by site
    clients: Dict[str, List[str]] = field(default_factory=dict)
    remote_clusters: Dict[str, Cluster] = field(default_factory=dict)

    def mount_clients(
        self, site: str, count: int | None = None, **mount_kwargs
    ) -> List[MountedFs]:
        """Mount the filesystem on ``count`` client nodes at ``site``."""
        g = self.gfs
        nodes = self.clients[site]
        if count is not None:
            nodes = nodes[:count]
        mounts = []
        device = "gpfs-wan"
        for node in nodes:
            owner = g.cluster_of_node(node)
            if owner is self.sdsc:
                evt = self.sdsc.mmmount(
                    device, node, tags=("gfs", site), **mount_kwargs
                )
            else:
                cluster = self.remote_clusters[site]
                evt = cluster.mmmount(
                    device + "-remote", node, tags=("gfs", site), **mount_kwargs
                )
            mounts.append(g.run(until=evt))
        return mounts


def build_sdsc2005(
    nsd_servers: int = 64,
    ds4100_count: int = 32,
    sdsc_clients: int = 64,
    anl_clients: int = 32,
    ncsa_clients: int = 8,
    server_nic: float = Gbps(1),
    block_size: int = MiB(1),
    store_data: bool = False,
    with_disks: bool = True,
    seed: int = 0,
    replication=None,
) -> Sdsc2005Scenario:
    """Figs 9–10: the production configuration (parameterized for sweeps)."""
    if nsd_servers < 1 or ds4100_count < 1:
        raise ValueError("need at least one server and one brick")
    g = Gfs(seed=seed, default_tcp=TUNED_2005)
    net = g.network
    add_teragrid_backbone(net, sites=("sdsc", "ncsa", "anl"))
    # SDSC machine-room GbE fabric hangs off the site switch
    net.add_node("sdsc-gbe", site="sdsc", kind="switch")
    net.add_link("sdsc-gbe", "sdsc-sw", Gbps(128), delay=20e-6, efficiency=0.96)

    sdsc = g.add_cluster("sdsc", site="sdsc")

    arrays: List[StorageArray] = []
    luns = []
    if with_disks:
        arrays = [make_ds4100(g.sim, f"ds4100-{i:02d}") for i in range(ds4100_count)]
        luns = [lun for a in arrays for lun in a.luns]

    def _blocks_for(lun) -> int:
        # NSD capacity mirrors the backing LUN (2 TB per 8+P SATA set);
        # diskless test builds get a nominal size.
        if lun is None:
            return 16384
        return int(lun.capacity // block_size)

    specs: List[NsdSpec] = []
    for i in range(nsd_servers):
        name = f"nsd{i:02d}"
        net.add_host(name, "sdsc-gbe", server_nic, site="sdsc")
        sdsc.add_node(name)
        hba = Hba(g.sim, name=f"{name}.hba") if with_disks else None
        lun = luns[i % len(luns)] if luns else None
        specs.append(NsdSpec(server=name, blocks=_blocks_for(lun), lun=lun, hba=hba))
    # Spread remaining LUNs over the servers (224 LUNs / 64 servers):
    # extra NSDs share the server's NIC and HBA.
    if luns:
        hbas = {spec.server: spec.hba for spec in specs}
        for j in range(nsd_servers, len(luns)):
            server = f"nsd{j % nsd_servers:02d}"
            specs.append(
                NsdSpec(server=server, blocks=_blocks_for(luns[j]), lun=luns[j],
                        hba=hbas[server])
            )
    fs = sdsc.mmcrfs(
        "gpfs-wan",
        specs,
        block_size=block_size,
        store_data=store_data,
        replication=replication,
    )

    clients: Dict[str, List[str]] = {"sdsc": [], "anl": [], "ncsa": []}
    for i in range(sdsc_clients):
        name = f"sdsc-tg{i:03d}"
        net.add_host(name, "sdsc-gbe", Gbps(1), site="sdsc")
        sdsc.add_node(name)
        clients["sdsc"].append(name)

    sdsc.mmauth_update("AUTHONLY")
    sdsc_pub = sdsc.mmauth_genkey()
    remote_clusters: Dict[str, Cluster] = {}
    for site, count in (("anl", anl_clients), ("ncsa", ncsa_clients)):
        cluster = g.add_cluster(site, site=site)
        cluster.mmauth_update("AUTHONLY")
        for i in range(count):
            name = f"{site}-n{i:03d}"
            net.add_host(name, f"{site}-sw", Gbps(1), site=site)
            cluster.add_node(name)
            clients[site].append(name)
        pub = cluster.mmauth_genkey()
        sdsc.mmauth_add(site, pub)
        sdsc.mmauth_grant(site, "gpfs-wan", "rw")
        cluster.mmremotecluster_add("sdsc", sdsc_pub, contact_nodes=["nsd00"])
        cluster.mmremotefs_add("gpfs-wan-remote", "sdsc", "gpfs-wan")
        remote_clusters[site] = cluster

    return Sdsc2005Scenario(
        gfs=g,
        sdsc=sdsc,
        fs=fs,
        arrays=arrays,
        clients=clients,
        remote_clusters=remote_clusters,
    )


def attach_bgl(
    scenario: Sdsc2005Scenario,
    io_nodes: int = 64,
    nic_rate: float = Gbps(2),
    compute_per_io: int = 64,
) -> List[str]:
    """Attach Blue Gene/L "Intimidata" to the production GFS (§5).

    "an exact match to the maximum I/O rate of our IBM Blue Gene/L system,
    Intimidata, which is also planned to use the GFS as its native file
    system". BG/L compute nodes do no direct I/O: every ``compute_per_io``
    compute nodes funnel through one I/O node, which runs the filesystem
    client. With 64 I/O nodes at 2 Gb/s the aggregate is the 128 Gb/s
    design point of §8.
    """
    if io_nodes < 1 or compute_per_io < 1:
        raise ValueError("io_nodes and compute_per_io must be >= 1")
    g = scenario.gfs
    net = g.network
    net.add_node("bgl-fabric", site="sdsc", kind="switch")
    # the BG/L tree network feeding the I/O nodes is not the bottleneck
    net.add_link("bgl-fabric", "sdsc-gbe", Gbps(256), delay=5e-6, efficiency=0.96)
    names = []
    for i in range(io_nodes):
        name = f"bgl-io{i:03d}"
        net.add_host(name, "bgl-fabric", nic_rate, site="sdsc",
                     compute_nodes=compute_per_io)
        scenario.sdsc.add_node(name)
        names.append(name)
    scenario.clients["bgl"] = names
    return names
