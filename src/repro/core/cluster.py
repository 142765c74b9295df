"""GPFS clusters and the ``mm*`` administrative surface.

A :class:`Gfs` is the simulation universe: one clock, one network, one flow
engine, and the clusters living on it. A :class:`Cluster` is "a set of
nodes which share configuration and local filesystem information" (§6.1):
config servers, a keystore, a cipherList setting, a UID domain and
grid-mapfile, its filesystems, and its view of remote clusters.

The administrative verbs mirror the real commands the paper describes —
``mmcrfs``, ``mmmount``, ``mmauth``, ``mmremotecluster``, ``mmremotefs`` —
so the examples read like the deployment they reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.auth.cipher import CipherPolicy, cipher as cipher_lookup
from repro.auth.keys import KeyStore
from repro.auth.rsa import RsaPublicKey, generate_keypair
from repro.auth.uid import GridMapFile, UidDomain
from repro.core.client import Identity, MountedFs, ROOT
from repro.core.filesystem import Filesystem
from repro.core.nsd import Nsd, NsdServer, NsdService
from repro.net.flow import FlowEngine
from repro.net.message import MessageService
from repro.net.tcp import TcpModel
from repro.net.topology import Network
from repro.obs.registry import OBS
from repro.sim.kernel import Event, Simulation
from repro.sim.rand import RngRegistry
from repro.storage.array import Lun
from repro.storage.san import Hba
from repro.util.units import MiB


class ClusterError(RuntimeError):
    """Administrative misuse (unknown device, daemon state, ...)."""


@dataclass
class NsdSpec:
    """One NSD to create: its server node, backing LUN, and size in blocks.

    ``server_tags`` label every data flow through this NSD's server (used
    by scenarios to attribute traffic to e.g. a SCinet uplink, Fig 8).
    ``failure_group`` is the replica-placement domain (``mmcrnsd``'s
    FailureGroup column); None lets mmcrfs assign one per server node, so
    replicas of a block never share an NSD server by default.
    """

    server: str
    blocks: int
    lun: Optional[Lun] = None
    hba: Optional[Hba] = None
    server_tags: Tuple[str, ...] = ()
    failure_group: Optional[int] = None

    def __post_init__(self) -> None:
        if self.blocks <= 0:
            raise ValueError("NSD must have a positive block count")


@dataclass
class RemoteClusterDef:
    """mmremotecluster: another cluster as seen from the importing side."""

    name: str
    contact_nodes: List[str]


@dataclass
class RemoteFsDef:
    """mmremotefs: a remote device mapped to a local mount alias."""

    local_device: str
    cluster: str
    remote_device: str


class Gfs:
    """The universe: clock + network + clusters."""

    def __init__(self, seed: int = 0, default_tcp: Optional[TcpModel] = None) -> None:
        self.sim = Simulation()
        self.network = Network()
        self.engine = FlowEngine(self.sim, self.network, default_tcp=default_tcp)
        self.messages = MessageService(self.sim, self.network)
        self.rng = RngRegistry(seed)
        self.clusters: Dict[str, Cluster] = {}
        self.node_cluster: Dict[str, str] = {}
        self._crypto_pipes: Dict[str, object] = {}
        if OBS.enabled:
            from repro.obs.collect import start_collector

            start_collector(self.sim)

    def add_cluster(self, name: str, site: str = "") -> "Cluster":
        if name in self.clusters:
            raise ClusterError(f"cluster {name!r} already exists")
        cluster = Cluster(self, name, site=site or name)
        self.clusters[name] = cluster
        return cluster

    def cluster(self, name: str) -> "Cluster":
        try:
            return self.clusters[name]
        except KeyError:
            raise ClusterError(f"unknown cluster {name!r}") from None

    def cluster_of_node(self, node: str) -> Optional["Cluster"]:
        name = self.node_cluster.get(node)
        return self.clusters.get(name) if name else None

    def pair_cipher(self, src_node: str, dst_node: str) -> Optional[CipherPolicy]:
        """The cipher governing traffic between two nodes (None if intra-cluster)."""
        a = self.cluster_of_node(src_node)
        b = self.cluster_of_node(dst_node)
        if a is None or b is None or a is b:
            return None
        # The serving cluster's policy governs, but the connection runs at
        # the stricter of the two ends' crypto speeds.
        policies = [a.cipher, b.cipher]
        encrypting = [p for p in policies if p.encrypts]
        if not encrypting:
            return None
        return min(encrypting, key=lambda p: p.crypto_rate or float("inf"))

    def _pair_cap(self, src_node: str, dst_node: str) -> Optional[float]:
        policy = self.pair_cipher(src_node, dst_node)
        return policy.crypto_rate if policy else None

    def crypto_pipes_for(self, src_node: str, dst_node: str) -> list:
        """Per-node software-crypto stages for an encrypted transfer.

        Encryption runs on the CPU, so its throughput ceiling is per *node*,
        not per connection: a client decrypting streams from 8 NSD servers
        still decrypts at one CPU's rate. Each node gets one shared pipe
        (created on demand); encrypted transfers pass through the sender's
        and the receiver's.
        """
        policy = self.pair_cipher(src_node, dst_node)
        if policy is None or not policy.encrypts:
            return []
        from repro.storage.pipes import Pipe

        pipes = []
        for node in (src_node, dst_node):
            pipe = self._crypto_pipes.get(node)
            if pipe is None or pipe.rate != policy.crypto_rate:
                pipe = Pipe(self.sim, policy.crypto_rate, name=f"crypto:{node}")
                self._crypto_pipes[node] = pipe
            pipes.append(pipe)
        return pipes

    def run(self, until=None):
        return self.sim.run(until=until)


class Cluster:
    """One administrative domain's GPFS cluster."""

    def __init__(self, gfs: Gfs, name: str, site: str = "") -> None:
        self.gfs = gfs
        self.name = name
        self.site = site
        self.nodes: List[str] = []
        self.keystore = KeyStore(name)
        self.cipher: CipherPolicy = cipher_lookup("EMPTY")
        self.uid_domain = UidDomain(site)
        self.gridmap = GridMapFile(self.uid_domain)
        self.filesystems: Dict[str, Filesystem] = {}
        self.remote_clusters: Dict[str, RemoteClusterDef] = {}
        self.remote_fs: Dict[str, RemoteFsDef] = {}
        #: mmauth grants: cluster name → {device → "ro"|"rw"}
        self.grants: Dict[str, Dict[str, str]] = {}
        self.active_remote_mounts = 0

    # -- membership -----------------------------------------------------------

    def add_node(self, node: str) -> None:
        """Register an existing network node as a cluster member."""
        if node not in self.gfs.network.nodes:
            raise ClusterError(f"node {node!r} is not on the network")
        owner = self.gfs.node_cluster.get(node)
        if owner is not None:
            raise ClusterError(f"node {node!r} already belongs to cluster {owner!r}")
        self.nodes.append(node)
        self.gfs.node_cluster[node] = self.name

    def add_nodes(self, nodes) -> None:
        for node in nodes:
            self.add_node(node)

    @property
    def primary_config_server(self) -> str:
        if not self.nodes:
            raise ClusterError(f"cluster {self.name!r} has no nodes")
        return self.nodes[0]

    @property
    def secondary_config_server(self) -> Optional[str]:
        return self.nodes[1] if len(self.nodes) > 1 else None

    def active_config_server(self, down_nodes: Optional[set] = None) -> str:
        """The config server currently answering (§6.1: primary, and
        optionally a secondary, maintain master copies of all configuration
        files)."""
        down = down_nodes or set()
        if self.primary_config_server not in down:
            return self.primary_config_server
        secondary = self.secondary_config_server
        if secondary is not None and secondary not in down:
            return secondary
        raise ClusterError(
            f"cluster {self.name!r}: both configuration servers are down"
        )

    # -- collective commands (§6.1's mmdsh / distributed shell) -----------------

    def mmdsh(self, payload_bytes: float = 4096.0,
              down_nodes: Optional[set] = None) -> "Event":
        """Run a collective command: the config server pushes to every node
        and waits for every acknowledgement (the rsh/ssh fan-out that GPFS
        collective commands are built on, §6.1). Value is the node count.
        """
        source = self.active_config_server(down_nodes)
        gfs = self.gfs

        def _proc():
            sends = [
                gfs.messages.round_trip(source, node, request_bytes=payload_bytes,
                                        reply_bytes=256)
                for node in self.nodes
                if node != source
            ]
            if sends:
                yield gfs.sim.all_of(sends)
            else:
                yield gfs.sim.timeout(0.0)
            return len(self.nodes)

        return gfs.sim.process(_proc(), name=f"mmdsh:{self.name}")

    # -- accounts (the per-site UID space of §6) --------------------------------

    def add_user(self, username: str, uid: int, gid: int = 100,
                 dn: Optional[str] = None) -> Identity:
        acct = self.uid_domain.add_user(username, uid, gid)
        if dn is not None:
            self.gridmap.add(dn, username)
        return Identity(uid=acct.uid, gid=acct.gid, dn=dn, username=username)

    def identity_for_dn(self, dn: str, use_dn_ownership: bool = True) -> Identity:
        """Resolve a GSI DN to a local identity via the grid-mapfile."""
        acct = self.gridmap.resolve(dn)
        return Identity(
            uid=acct.uid,
            gid=acct.gid,
            dn=dn if use_dn_ownership else None,
            username=acct.username,
        )

    # -- mmauth -------------------------------------------------------------------

    def mmauth_genkey(self, bits: int = 256) -> RsaPublicKey:
        """Generate the cluster keypair (``mmauth genkey new``)."""
        if self.active_remote_mounts:
            raise ClusterError(
                "mmauth genkey requires all GPFS daemons shut down "
                f"({self.active_remote_mounts} remote mounts active)"
            )
        keypair = generate_keypair(
            bits=bits, rng=self.gfs.rng.stream(f"mmauth:{self.name}")
        )
        self.keystore.set_own(keypair)
        return keypair.public

    def mmauth_add(self, cluster: str, public_key: RsaPublicKey) -> None:
        """Install a remote cluster's public key (out-of-band exchange)."""
        self.keystore.import_public(cluster, public_key)

    def mmauth_grant(self, cluster: str, device: str, access: str = "ro") -> None:
        """Allow ``cluster`` to mount ``device`` (``mmauth grant``)."""
        if access not in ("ro", "rw"):
            raise ValueError("access must be 'ro' or 'rw'")
        if device not in self.filesystems:
            raise ClusterError(f"no filesystem {device!r} in cluster {self.name!r}")
        self.grants.setdefault(cluster, {})[device] = access

    def mmauth_update(self, cipher_name: str) -> None:
        """Set the cipherList (requires quiesced daemons, as in GPFS 2.3)."""
        if self.active_remote_mounts:
            raise ClusterError("cannot change cipherList with remote mounts active")
        self.cipher = cipher_lookup(cipher_name)

    def granted_access(self, cluster: str, device: str) -> Optional[str]:
        return self.grants.get(cluster, {}).get(device)

    # -- mmcrfs ---------------------------------------------------------------------

    def mmcrfs(
        self,
        device: str,
        specs: List[NsdSpec],
        block_size: int = MiB(1),
        manager_node: Optional[str] = None,
        store_data: bool = True,
        replication=None,
    ) -> Filesystem:
        """Create a filesystem striped over the given NSDs.

        ``replication`` is a :class:`~repro.core.replication.ReplicationPolicy`
        (``mmcrfs -r``); default is R=1, no verification — the legacy path.
        """
        if device in self.filesystems:
            raise ClusterError(f"filesystem {device!r} already exists")
        if not specs:
            raise ClusterError("mmcrfs needs at least one NSD")
        for spec in specs:
            if spec.server not in self.nodes:
                raise ClusterError(
                    f"NSD server {spec.server!r} is not a member of cluster {self.name!r}"
                )
        # Default failure groups: one per server node — replicas of a block
        # then never sit behind the same NSD server.
        group_of_server = {
            srv: k for k, srv in enumerate(dict.fromkeys(s.server for s in specs))
        }
        nsds: List[Nsd] = []
        servers: Dict[int, NsdServer] = {}
        server_objs: Dict[str, NsdServer] = {}
        for i, spec in enumerate(specs):
            nsd = Nsd(
                nsd_id=i,
                name=f"{device}-nsd{i}",
                total_blocks=spec.blocks,
                block_size=block_size,
                lun=spec.lun,
                store_data=store_data,
                failure_group=(
                    spec.failure_group
                    if spec.failure_group is not None
                    else group_of_server[spec.server]
                ),
            )
            nsds.append(nsd)
            server = server_objs.get(spec.server)
            if server is None:
                server = NsdServer(spec.server, [], hba=spec.hba, tags=spec.server_tags)
                server_objs[spec.server] = server
            server.nsds.append(nsd)
            servers[i] = server
        # Backup NSD servers: the bricks are twin-tailed, so the next
        # distinct server in the configuration backs each NSD (GPFS's
        # primary/secondary NSD server lists).
        ordered_servers = list(server_objs.values())
        backups: Dict[int, list] = {}
        if len(ordered_servers) > 1:
            index_of = {srv.node: k for k, srv in enumerate(ordered_servers)}
            for i, spec in enumerate(specs):
                k = index_of[spec.server]
                backups[i] = [ordered_servers[(k + 1) % len(ordered_servers)]]
        service = NsdService(
            self.gfs.sim,
            self.gfs.engine,
            self.gfs.messages,
            servers,
            {n.nsd_id: n for n in nsds},
            cap_resolver=self.gfs._pair_cap,
            crypto_resolver=self.gfs.crypto_pipes_for,
            backup_servers=backups,
        )
        fs = Filesystem(
            self.gfs.sim,
            device,
            block_size,
            nsds,
            service,
            self.gfs.messages,
            manager_node or specs[0].server,
            owner_cluster=self.name,
            store_data=store_data,
            replication=replication,
        )
        self.filesystems[device] = fs
        if OBS.enabled:
            from repro.obs.wire import attach_filesystem, attach_service

            attach_service(service, fs=device)
            attach_filesystem(fs)
        return fs

    def filesystem(self, device: str) -> Filesystem:
        try:
            return self.filesystems[device]
        except KeyError:
            raise ClusterError(
                f"no filesystem {device!r} in cluster {self.name!r}"
            ) from None

    # -- mmremotecluster / mmremotefs -------------------------------------------------

    def mmremotecluster_add(
        self, cluster: str, public_key: RsaPublicKey, contact_nodes: List[str]
    ) -> None:
        """Define a serving cluster on the importing side."""
        if not contact_nodes:
            raise ClusterError("mmremotecluster needs at least one contact node")
        self.keystore.import_public(cluster, public_key)
        self.remote_clusters[cluster] = RemoteClusterDef(cluster, list(contact_nodes))

    def mmremotefs_add(self, local_device: str, cluster: str, remote_device: str) -> None:
        """Map a remote device to a local mount alias."""
        if cluster not in self.remote_clusters:
            raise ClusterError(
                f"define cluster {cluster!r} with mmremotecluster before mmremotefs"
            )
        if local_device in self.remote_fs or local_device in self.filesystems:
            raise ClusterError(f"device name {local_device!r} already in use")
        self.remote_fs[local_device] = RemoteFsDef(local_device, cluster, remote_device)

    # -- mmmount ----------------------------------------------------------------------

    def mmmount(
        self,
        device: str,
        node: str,
        identity: Identity = ROOT,
        access: str = "rw",
        gateway=None,
        **mount_kwargs,
    ) -> Event:
        """Mount a local or remote device on ``node``; value is a MountedFs.

        ``gateway`` (a :class:`repro.cache.CacheGateway`, remote devices
        only) routes the mount's block traffic through the site's caching
        gateway cluster instead of straight over the WAN.
        """
        if node not in self.nodes:
            raise ClusterError(f"node {node!r} is not in cluster {self.name!r}")
        if device in self.filesystems:
            if gateway is not None:
                raise ClusterError("gateway mounts are for remote devices only")
            return self.gfs.sim.process(
                self._mount_local(device, node, identity, access, mount_kwargs),
                name=f"mount:{device}",
            )
        if device in self.remote_fs:
            from repro.core.multicluster import mount_remote

            return mount_remote(
                self, device, node, identity, access, mount_kwargs,
                gateway=gateway,
            )
        raise ClusterError(f"unknown device {device!r} (no local fs, no mmremotefs)")

    def _mount_local(self, device, node, identity, access, mount_kwargs):
        fs = self.filesystems[device]
        yield self.gfs.messages.round_trip(node, fs.manager_node)
        return MountedFs(fs, node, identity=identity, access=access, **mount_kwargs)

    # -- mmls* administrative views ------------------------------------------------

    def mmlscluster(self) -> str:
        """Human-readable cluster summary (à la ``mmlscluster``)."""
        from repro.util.tables import Table

        table = Table(["attribute", "value"], title=f"GPFS cluster information")
        table.add_row(["cluster name", self.name])
        table.add_row(["site", self.site])
        table.add_row(["primary config server", self.primary_config_server
                       if self.nodes else "-"])
        table.add_row(["secondary config server", self.secondary_config_server or "-"])
        table.add_row(["cipherList", self.cipher.name])
        table.add_row(["nodes", len(self.nodes)])
        table.add_row(["filesystems", ", ".join(sorted(self.filesystems)) or "-"])
        table.add_row(["remote filesystems", ", ".join(sorted(self.remote_fs)) or "-"])
        table.add_row(["active remote mounts", self.active_remote_mounts])
        return table.render()

    def mmlsfs(self, device: str) -> str:
        """Human-readable filesystem summary (à la ``mmlsfs``)."""
        from repro.util.tables import Table
        from repro.util.units import fmt_bytes

        fs = self.filesystem(device)
        table = Table(["attribute", "value"], title=f"flag/value for {device}")
        table.add_row(["block size", fmt_bytes(fs.block_size)])
        table.add_row(["NSDs", len(fs.nsds)])
        table.add_row(["NSD servers", len({s.node for s in fs.service.servers.values()})])
        table.add_row(["capacity", fmt_bytes(fs.capacity)])
        table.add_row(["used", fmt_bytes(fs.used_bytes)])
        table.add_row(["free", fmt_bytes(fs.free_bytes)])
        table.add_row(["inodes", len(fs.inodes)])
        table.add_row(["mounts", len(fs.mounts)])
        table.add_row(["data kept", "yes" if fs.store_data else "size-only"])
        return table.render()

    def mmlsauth(self) -> str:
        """Grant table (à la ``mmauth show``)."""
        from repro.auth.keys import fingerprint
        from repro.util.tables import Table

        table = Table(["cluster", "key fingerprint", "grants"],
                      title=f"mmauth show ({self.name})")
        own = (
            fingerprint(self.keystore.own.public) if self.keystore.has_own else "(none)"
        )
        table.add_row([f"{self.name} (this)", own, "-"])
        for cluster, grants in sorted(self.grants.items()):
            fp = (
                fingerprint(self.keystore.public_of(cluster))
                if self.keystore.knows(cluster)
                else "(no key!)"
            )
            text = ", ".join(f"{dev}:{acc}" for dev, acc in sorted(grants.items()))
            table.add_row([cluster, fp, text])
        return table.render()
