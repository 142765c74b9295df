"""Network Shared Disks and the block data plane.

An :class:`Nsd` is one exported LUN: a pool of physical blocks with (when
``store_data``) real byte contents — reads return exactly what writes
stored, which is what the integrity tests assert end-to-end across
clusters. A size-only NSD (``store_data=False``) keeps no contents: a
write may carry just its length, and a read returns just its length.

An :class:`NsdServer` is the node that fronts a set of NSDs: it owns the
FC path to the bricks (HBA → controller → RAID) and its GbE/10GbE NIC is
a link in the network graph, so server-side bottlenecks emerge from the
topology rather than from tuning constants.

:class:`NsdService` is the data-plane protocol: one write RPC and one read
RPC, each over a list of block extents on one NSD (``read_block`` and
``write_block`` send a list of one, ``read_blocks`` and ``write_blocks`` a
planned run):

* write: client → server data flow, then the server's SAN write, then an
  ack message back;
* read: request message, SAN read, then server → client data flow.

Block transfers from one client fan out across *all* NSD servers (striping),
which is precisely the many-parallel-TCP-streams structure that let the
paper saturate WAN links despite 80 ms RTTs.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, Generator, Iterable, Optional

from repro.net.flow import FlowEngine
from repro.net.message import MessageService
from repro.net.tcp import TcpModel
from repro.obs.registry import OBS
from repro.sim.kernel import Event, Simulation
from repro.sim.trace import TRACE
from repro.storage.array import Lun
from repro.storage.san import Hba


class ChecksumError(IOError):
    """A block read did not match its stored end-to-end checksum."""


class Nsd:
    """One network shared disk: identity, capacity, and block contents.

    Integrity: every ``store`` records a CRC32 over the full (zero-padded)
    block, so a reader that fetches the whole block can verify end to end.
    ``corrupt`` models silent bit-rot — it mutates stored bytes (or, in
    size-only mode, poisons the block) *without* touching the checksum,
    which is exactly what makes the rot detectable only by verification.
    """

    def __init__(
        self,
        nsd_id: int,
        name: str,
        total_blocks: int,
        block_size: int,
        lun: Optional[Lun] = None,
        store_data: bool = True,
        failure_group: Optional[int] = None,
    ) -> None:
        if total_blocks <= 0 or block_size <= 0:
            raise ValueError("total_blocks and block_size must be positive")
        self.nsd_id = nsd_id
        self.name = name
        self.total_blocks = total_blocks
        self.block_size = block_size
        self.lun = lun
        self.store_data = store_data
        #: Placement domain: replicas of one block must land in distinct
        #: failure groups (defaults to "every NSD its own group").
        self.failure_group = nsd_id if failure_group is None else int(failure_group)
        self._data: Dict[int, bytes] = {}
        #: phys → CRC32 of the zero-padded full block, written at store time.
        self._sums: Dict[int, int] = {}
        #: Replicas with injected rot (authoritative in size-only mode,
        #: where there are no bytes for the CRC to disagree about).
        self._poisoned: set[int] = set()
        self.reads = 0
        self.writes = 0
        self.corruptions = 0

    @property
    def capacity(self) -> int:
        return self.total_blocks * self.block_size

    def _check_block(self, phys: int) -> None:
        if not 0 <= phys < self.total_blocks:
            raise ValueError(f"physical block {phys} out of range on {self.name}")

    def store(self, phys: int, offset: int, data: "bytes | int") -> None:
        """Merge ``data`` into block ``phys`` at ``offset`` (logical effect).

        On a size-only NSD, which keeps no contents, ``data`` may be its
        length: the write is bounds-checked, counted and heals rot just
        as bytes of that length would.
        """
        self._check_block(phys)
        length = data if isinstance(data, int) else len(data)
        if offset < 0 or length < 0 or offset + length > self.block_size:
            raise ValueError("write exceeds block bounds")
        self.writes += 1
        # A full-block overwrite replaces every rotten byte; a partial
        # write cannot vouch for the bytes it did not touch, so poison
        # (injected rot) survives it and still triggers repair.
        if offset == 0 and length == self.block_size:
            self._poisoned.discard(phys)
        if not self.store_data:
            return
        old = self._data.get(phys, b"")
        if len(old) < offset:
            old = old + b"\x00" * (offset - len(old))
        new = old[:offset] + data + old[offset + len(data):]
        self._data[phys] = new
        self._sums[phys] = self._checksum_of(new)

    def _checksum_of(self, blob: bytes) -> int:
        """CRC32 over ``blob`` zero-padded to a full block (what a reader
        of the whole block sees)."""
        pad = int(self.block_size) - len(blob)
        return zlib.crc32(bytes(pad), zlib.crc32(blob))

    def checksum(self, phys: int) -> Optional[int]:
        """Stored checksum of block ``phys`` (None if never written)."""
        self._check_block(phys)
        return self._sums.get(phys)

    def verify_full(self, phys: int, data: "bytes | int | None" = None) -> bool:
        """Does a full-block read of ``phys`` match its stored checksum?

        ``data`` is the transferred full block (end-to-end verification at
        the reader); omit it to verify the at-rest contents (scrub). A
        size-only NSD keeps no checksums: only injected rot fails it, and
        ``data`` (a length there) is not read.
        """
        self._check_block(phys)
        if phys in self._poisoned:
            return False
        want = self._sums.get(phys)
        if want is None or not self.store_data:
            return True
        if data is None:
            blob = self._data.get(phys, b"")
            return self._checksum_of(blob) == want
        if len(data) != self.block_size:
            raise ValueError("verify_full needs the whole block")
        return zlib.crc32(data) == want

    def corrupt(self, phys: int, offset: Optional[int] = None) -> bool:
        """Silent bit-rot: flip one stored byte, leaving the checksum
        intact — only end-to-end verification can notice. Returns True
        (rot landed); the flip offset defaults to a deterministic
        function of ``phys`` so chaos runs stay reproducible.
        """
        self._check_block(phys)
        self.corruptions += 1
        self._poisoned.add(phys)
        if not self.store_data:
            return True
        blob = self._data.get(phys)
        if blob:
            if offset is None:
                offset = phys % len(blob)
            if not 0 <= offset < len(blob):
                raise ValueError(f"corruption offset {offset} outside stored data")
            flipped = blob[offset] ^ 0x5A
            self._data[phys] = blob[:offset] + bytes([flipped]) + blob[offset + 1:]
        return True

    def fetch(self, phys: int, offset: int, length: int) -> "bytes | int":
        """Block contents (zero-filled where never written), or on a
        size-only NSD, which keeps no contents, their length."""
        self._check_block(phys)
        if offset < 0 or length < 0 or offset + length > self.block_size:
            raise ValueError("read exceeds block bounds")
        self.reads += 1
        if not self.store_data:
            return length
        blob = self._data.get(phys, b"")
        piece = blob[offset : offset + length]
        if len(piece) < length:
            piece = piece + b"\x00" * (length - len(piece))
        return piece

    def discard(self, phys: int) -> None:
        self._data.pop(phys, None)
        self._sums.pop(phys, None)
        self._poisoned.discard(phys)

    def trim(self, phys: int, keep_bytes: int) -> None:
        """Drop block contents beyond ``keep_bytes`` (truncate tail)."""
        self._check_block(phys)
        if keep_bytes < 0 or keep_bytes > self.block_size:
            raise ValueError("keep_bytes out of block bounds")
        blob = self._data.get(phys)
        if blob is not None and len(blob) > keep_bytes:
            blob = blob[:keep_bytes]
            self._data[phys] = blob
            self._sums[phys] = self._checksum_of(blob)


class NsdServer:
    """A node exporting NSDs: NIC in the graph + FC path to the bricks."""

    def __init__(
        self,
        node: str,
        nsds: Iterable[Nsd],
        hba: Optional[Hba] = None,
        name: str = "",
        tags: tuple[str, ...] = (),
    ) -> None:
        self.node = node
        self.name = name or node
        self.nsds = list(nsds)
        self.hba = hba
        self.tags = tags  # e.g. the SCinet lane this server's NIC rides
        self.bytes_served = 0.0

    def disk_io(self, sim: Simulation, nsd: Nsd, kind: str,
                nbytes: float) -> Generator[Event, None, None]:
        """The server-side SAN leg: HBA, then the LUN's controller and RAID.

        A generator its caller drives with ``yield from``, inside the RPC
        (or scrub) that pays for it: each stage IO costs 3 kernel entries
        and a diskless NSD (no HBA, no LUN) yields nothing. Traced as one
        ``disk.service`` span on the server's lane.
        """
        sid = TRACE.begin(
            sim, "disk.service", cat="nsd.disk", lane=f"nsd:{self.name}",
            nsd=nsd.name, bytes=nbytes,
        ) if TRACE.enabled else 0
        if self.hba is not None:
            yield self.hba.transfer(nbytes)
        if nsd.lun is not None:
            yield from nsd.lun.io(kind, nbytes)
        self.bytes_served += nbytes
        if sid:
            TRACE.end(sim, sid)


#: A block RPC: a generator its waiting caller drives with ``yield from``.
RpcGen = Generator[Event, object, object]

#: Resolver hooks: (client_node, server_node) → value.
CapResolver = Callable[[str, str], Optional[float]]
TcpResolver = Callable[[str, str], Optional[TcpModel]]
#: → list of per-node crypto Pipes the payload must pass through.
CryptoResolver = Callable[[str, str], list]


class NsdServerDown(ConnectionError):
    """Neither the primary nor any backup NSD server is reachable."""


class RpcRetriesExhausted(ConnectionError):
    """A block RPC failed every attempt allowed by the retry policy."""


class NsdService:
    """The client↔server block protocol over the fluid network.

    Each NSD has a primary server and optionally backups ("the list of
    primary and secondary NSD servers", §6.2); when a node is marked down
    the service fails over to the next server that shares SAN access to
    the disk, exactly as GPFS does.
    """

    #: Size of control messages (requests/acks), bytes.
    CONTROL_BYTES = 512.0

    def __init__(
        self,
        sim: Simulation,
        engine: FlowEngine,
        messages: MessageService,
        servers: Dict[int, NsdServer],
        nsds: Dict[int, Nsd],
        cap_resolver: Optional[CapResolver] = None,
        tcp_resolver: Optional[TcpResolver] = None,
        crypto_resolver: Optional[CryptoResolver] = None,
        backup_servers: Optional[Dict[int, list]] = None,
    ) -> None:
        self.sim = sim
        self.engine = engine
        self.messages = messages
        self.servers = servers
        self.nsds = nsds
        self.cap_resolver = cap_resolver
        self.tcp_resolver = tcp_resolver
        self.crypto_resolver = crypto_resolver
        self.backup_servers: Dict[int, list] = backup_servers or {}
        self.down_nodes: set[str] = set()
        self.blocks_read = 0
        self.blocks_written = 0
        self.inflight = 0
        self.failovers = 0
        #: (sim time, nsd_id, from_node, to_node) per primary→backup switch.
        self.failover_events: list[tuple[float, int, str, str]] = []
        self._active: Dict[int, str] = {}  # nsd_id -> server node last used
        #: Ground-truth liveness (repro.faults.NodeHealth); None = all up.
        self.health = None
        #: Client retry policy (repro.faults.RetryPolicy); None = legacy
        #: fail-fast behaviour, preserved exactly for existing callers.
        self.retry = None
        self._retry_streams = None
        self.retries = 0
        self.rpc_timeouts = 0
        self.checksum_failures = 0
        self.checksum_verifications = 0
        #: Network partition state (repro.faults.PartitionState); None (or
        #: a healed partition) adds zero event hops to the data path.
        self.partition = None
        self.partition_parked = 0
        self._down_waiters: Dict[str, list] = {}
        #: Nodes also hosting a filesystem/token manager (populated by
        #: ``mmcrfs``): marking one down is a *control-plane* outage, not
        #: just a data-path reroute, and is surfaced distinctly.
        self.manager_nodes: set[str] = set()
        self.manager_downs = 0

    def attach_health(self, health) -> None:
        """RPCs to nodes that are down in ``health`` park until the lease
        detector declares the node dead (or it restarts), then raise
        :class:`NsdServerDown` — instead of succeeding against a corpse."""
        self.health = health

    def attach_retry(self, policy, rng_streams=None) -> None:
        """Enable per-RPC timeout/backoff/failover retry on block ops.

        ``rng_streams`` is an :class:`~repro.sim.rand.RngRegistry` (or any
        object with a ``stream(name)`` method): each client node then draws
        backoff jitter from its own named stream ``faults.retry.<node>``,
        so backed-off clients don't retry in lockstep. Without it backoff
        delays carry no jitter.
        """
        self.retry = policy
        self._retry_streams = rng_streams

    def _retry_rng_for(self, client_node: str):
        """The jitter RNG for one client's backoff delays (None: no jitter)."""
        if self._retry_streams is None:
            return None
        return self._retry_streams.stream(f"faults.retry.{client_node}")

    def attach_partition(self, partition) -> None:
        """Block ops between severed node sets park until the partition
        heals (repro.faults.PartitionState)."""
        self.partition = partition

    def mark_down(self, node: str) -> None:
        """Declare an NSD server node dead (disk lease expired)."""
        self.down_nodes.add(node)
        if node in self.manager_nodes:
            # Losing this node takes the token/metadata manager with it —
            # health reports must show the control-plane outage distinctly
            # from the (simultaneous) data-path reroute.
            self.manager_downs += 1
            if TRACE.enabled:
                TRACE.instant(
                    self.sim, "tokens.manager_down", cat="fault.control",
                    lane=f"node:{node}", node=node,
                )
        for event in self._down_waiters.pop(node, []):
            if not event.triggered:
                event.succeed(node)

    def mark_up(self, node: str) -> None:
        self.down_nodes.discard(node)

    def _down_declared(self, node: str) -> Event:
        """Event that fires when ``node`` is (or already was) marked down."""
        event = Event(self.sim)
        if node in self.down_nodes:
            event.succeed(node)
        else:
            self._down_waiters.setdefault(node, []).append(event)
        return event

    def server_of(self, nsd_id: int) -> NsdServer:
        try:
            primary = self.servers[nsd_id]
        except KeyError:
            raise KeyError(f"no NSD server for NSD {nsd_id}") from None
        chosen: Optional[NsdServer] = None
        if primary.node not in self.down_nodes:
            chosen = primary
        else:
            for backup in self.backup_servers.get(nsd_id, []):
                if backup.node not in self.down_nodes:
                    chosen = backup
                    break
        if chosen is None:
            raise NsdServerDown(
                f"NSD {nsd_id}: primary {primary.node!r} and all backups are down"
            )
        # Count primary→backup *transitions*, not per-block routings (and
        # not failback to the primary) — A5's failover metric is a count
        # of events, not of blocks served while degraded.
        prev = self._active.get(nsd_id, primary.node)
        if chosen.node != prev and chosen.node != primary.node:
            self.failovers += 1
            self.failover_events.append(
                (self.sim.now, nsd_id, prev, chosen.node)
            )
            if TRACE.enabled:
                TRACE.instant(
                    self.sim, "nsd.failover", cat="fault.failover",
                    lane=f"nsd:{chosen.name}", nsd=nsd_id,
                    from_node=prev, to_node=chosen.node,
                )
        self._active[nsd_id] = chosen.node
        return chosen

    # -- crash awareness ------------------------------------------------------

    def _guard(self, server: NsdServer):
        """Returns ``None`` while ``server``'s node is up — the fault-free
        fast path, no generator built at all — otherwise a generator that
        parks until the lease detector declares the node down (or it
        restarts), then raises :class:`NsdServerDown` so the retry layer
        can fail over. Call sites ``yield from`` only the non-None case.
        """
        if self.health is None or self.health.is_up(server.node):
            return None
        return self._guard_park(server)

    def _guard_park(self, server: NsdServer):
        yield self.sim.any_of(
            [
                self._down_declared(server.node),
                self.health.wait_restart(server.node),
            ]
        )
        raise NsdServerDown(
            f"server {server.node!r} crashed mid-RPC"
        )

    def _partition_wait(self, client_node: str, server_node: str):
        """Returns ``None`` when no partition severs the pair (fast path,
        zero overhead beyond this call); otherwise a generator that parks
        until the partition heals — the per-attempt retry timeout decides
        whether the caller waits or abandons the attempt.
        """
        part = self.partition
        if part is None or not part.severed(client_node, server_node):
            return None
        return self._partition_park(client_node, server_node)

    def _partition_park(self, client_node: str, server_node: str):
        self.partition_parked += 1
        if TRACE.enabled:
            TRACE.instant(
                self.sim, "nsd.partition_park", cat="fault.partition",
                lane="faults", client=client_node, server=server_node,
            )
        yield self.partition.wait_heal()

    def _pair_kwargs(self, src: str, dst: str) -> dict:
        kw: dict = {}
        if self.cap_resolver is not None:
            cap = self.cap_resolver(src, dst)
            if cap is not None:
                kw["cap"] = cap
        if self.tcp_resolver is not None:
            tcp = self.tcp_resolver(src, dst)
            if tcp is not None:
                kw["tcp"] = tcp
        return kw

    def _obs_rpc(self, op, gen):
        """Wrap one RPC generator with telemetry (latency/total/errors).

        ``yield from`` adds no events, so wrapping cannot perturb event
        order; with retries active the wrapped generator is the whole
        retried operation, i.e. the latency histogram records what the
        *client* saw, failovers and backoff included. Only an
        ``Exception`` counts as an error: a ``GeneratorExit`` is the cyclic
        GC closing an RPC that was still parked when its run ended.
        """
        t0 = self.sim.now
        self.inflight += 1
        try:
            result = yield from gen
        except Exception:
            if OBS.enabled:
                OBS.inc(self.sim, "nsd.rpc.errors", op=op)
            raise
        finally:
            self.inflight -= 1
        if OBS.enabled:
            OBS.observe(self.sim, "nsd.rpc.latency", self.sim.now - t0, op=op)
            OBS.inc(self.sim, "nsd.rpc.total", op=op)
        return result

    # -- block ops -----------------------------------------------------------
    #
    # One read RPC and one write RPC, each over a list of extents
    # ``(phys, offset, length | data)`` on one NSD: ``read_block`` and
    # ``write_block`` send a list of one. Whatever its length, an RPC pays
    # one control message, one disk I/O, one pass through each crypto pipe
    # and one engine transfer, all sized by the extents' combined length;
    # stores, fetches, checksums and block counters stay per extent.
    #
    # Each of the four returns the RPC as a generator: the process waiting
    # on it drives it with ``yield from`` and gets its value back, so an
    # RPC costs its caller no process of its own. A caller that needs
    # several RPCs in flight wraps each in ``sim.process``.

    def write_block(
        self,
        client_node: str,
        nsd_id: int,
        phys: int,
        offset: int,
        data: bytes | int,
        tags: tuple[str, ...] = (),
    ) -> RpcGen:
        """Write ``data`` (bytes, or a length for size-only mode) to a block;
        returns the byte count."""
        return self._rpc("write", (client_node, nsd_id, ((phys, offset, data),), tags))

    def write_blocks(
        self,
        client_node: str,
        nsd_id: int,
        items,
        tags: tuple[str, ...] = (),
    ) -> RpcGen:
        """Scatter-gather write of several blocks of one NSD in one RPC.

        ``items`` is ``[(phys, offset, data_or_len), ...]`` — typically a
        run of contiguous physical blocks planned by
        :func:`repro.core.client.plan_transfers`. Returns the total byte
        count.
        """
        if not items:
            raise ValueError("write_blocks needs at least one (phys, offset, data)")
        return self._rpc("write", (client_node, nsd_id, items, tags))

    def read_block(
        self,
        client_node: str,
        nsd_id: int,
        phys: int,
        offset: int,
        length: int,
        tags: tuple[str, ...] = (),
        verify: bool = False,
    ) -> RpcGen:
        """Read a block slice; returns its data: ``bytes``, or the length
        on a size-only NSD.

        ``verify=True`` (full-block reads only) checks the transferred
        data against the block's stored end-to-end checksum at the client
        and raises :class:`ChecksumError` on mismatch — the replication
        layer's cue to fail over to another replica and repair this one.
        """
        if verify and (offset != 0 or length != self.nsds[nsd_id].block_size):
            raise ValueError("verified reads must cover the whole block")
        return self._rpc(
            "read", (client_node, nsd_id, ((phys, offset, length),), tags, verify, True)
        )

    def read_blocks(
        self,
        client_node: str,
        nsd_id: int,
        phys_list,
        tags: tuple[str, ...] = (),
        verify: bool = False,
    ) -> RpcGen:
        """Scatter-gather full-block read of one NSD in one RPC.

        ``phys_list`` is a run of physical block numbers (contiguous for
        the aggregated-seek benefit, though any list works). With
        ``verify=True`` every block is checked end to end. Returns each
        block's data, as :meth:`read_block` does, in ``phys_list`` order.
        """
        bs = int(self.nsds[nsd_id].block_size)
        extents = [(phys, 0, bs) for phys in phys_list]
        if not extents:
            raise ValueError("read_blocks needs at least one physical block")
        return self._rpc("read", (client_node, nsd_id, extents, tags, verify, False))

    def _rpc(self, kind: str, args: tuple) -> RpcGen:
        """One ``_read``/``_write`` RPC as a generator for the caller to
        ``yield from`` (with retry and telemetry when armed). It spawns
        nothing."""
        if self.retry is not None:
            gen = self._with_retry(kind, args)
        else:
            gen = self._read(*args) if kind == "read" else self._write(*args)
        if OBS.enabled:
            gen = self._obs_rpc(kind, gen)
        return gen

    def _write(self, client_node, nsd_id, extents, tags):
        nsd = self.nsds[nsd_id]
        server = self.server_of(nsd_id)
        parked = self._partition_wait(client_node, server.node)
        if parked is not None:
            yield from parked
        guard = self._guard(server)
        if guard is not None:
            yield from guard
        total = 0
        for _phys, _offset, data in extents:
            total += data if isinstance(data, int) else len(data)
        blocks = len(extents)
        # Tracing decision is taken once per RPC so begin/end always pair.
        tr = TRACE if TRACE.enabled else None
        lane = f"nsd:{server.name}" if tr else ""
        rpc = tr.begin(
            self.sim, "nsd.write", cat="nsd.rpc", lane=lane,
            client=client_node, server=server.node, nsd=nsd_id,
            bytes=total, blocks=blocks,
        ) if tr else 0
        # 0. software crypto (per-node CPU stages) when the cluster pair
        #    runs an encrypting cipherList
        if self.crypto_resolver is not None:
            for pipe in self.crypto_resolver(client_node, server.node):
                sid = tr.begin(self.sim, "crypto", cat="nsd.crypto",
                               lane=lane) if tr else 0
                yield pipe.transfer(total)
                if sid:
                    tr.end(self.sim, sid)
        # 1. data flow client → server
        sid = tr.begin(self.sim, "net.data", cat="nsd.net", lane=lane,
                       src=client_node, dst=server.node) if tr else 0
        yield self.engine.transfer(
            client_node,
            server.node,
            total,
            tags=tuple(tags) + server.tags,
            **self._pair_kwargs(client_node, server.node),
        )
        if sid:
            tr.end(self.sim, sid)
        guard = self._guard(server)
        if guard is not None:
            yield from guard
        # 2. media write
        yield from server.disk_io(self.sim, nsd, "write", total)
        # logical effect, per block
        for phys, offset, data in extents:
            nsd.store(phys, offset, data)
        self.blocks_written += blocks
        guard = self._guard(server)
        if guard is not None:
            yield from guard
        # 3. ack back to client
        sid = tr.begin(self.sim, "net.ack", cat="nsd.net", lane=lane) if tr else 0
        yield self.messages.send(server.node, client_node, nbytes=self.CONTROL_BYTES)
        if sid:
            tr.end(self.sim, sid)
        if rpc:
            tr.end(self.sim, rpc)
        if OBS.enabled:
            OBS.inc(
                self.sim, "nsd.server.bytes", total, server=server.node, dir="in"
            )
        return total

    def _read(self, client_node, nsd_id, extents, tags, verify, one):
        """The read RPC; returns each extent's data (``Nsd.fetch``), or the
        only extent's when ``one`` (``read_block``)."""
        nsd = self.nsds[nsd_id]
        server = self.server_of(nsd_id)
        parked = self._partition_wait(client_node, server.node)
        if parked is not None:
            yield from parked
        guard = self._guard(server)
        if guard is not None:
            yield from guard
        total = 0
        for _phys, _offset, length in extents:
            total += length
        blocks = len(extents)
        tr = TRACE if TRACE.enabled else None
        lane = f"nsd:{server.name}" if tr else ""
        rpc = tr.begin(
            self.sim, "nsd.read", cat="nsd.rpc", lane=lane,
            client=client_node, server=server.node, nsd=nsd_id,
            bytes=total, blocks=blocks,
        ) if tr else 0
        # 1. request message client → server
        sid = tr.begin(self.sim, "net.request", cat="nsd.net", lane=lane) if tr else 0
        yield self.messages.send(client_node, server.node, nbytes=self.CONTROL_BYTES)
        if sid:
            tr.end(self.sim, sid)
        guard = self._guard(server)
        if guard is not None:
            yield from guard
        # 2. media read
        yield from server.disk_io(self.sim, nsd, "read", total)
        datas = [nsd.fetch(phys, offset, length) for phys, offset, length in extents]
        guard = self._guard(server)
        if guard is not None:
            yield from guard
        # 2b. software crypto stages (encrypt at the server, decrypt at the
        #     client — each node's CPU is a shared pipe)
        if self.crypto_resolver is not None:
            for pipe in self.crypto_resolver(server.node, client_node):
                sid = tr.begin(self.sim, "crypto", cat="nsd.crypto",
                               lane=lane) if tr else 0
                yield pipe.transfer(total)
                if sid:
                    tr.end(self.sim, sid)
        # 3. data flow server → client
        sid = tr.begin(self.sim, "net.data", cat="nsd.net", lane=lane,
                       src=server.node, dst=client_node) if tr else 0
        yield self.engine.transfer(
            server.node,
            client_node,
            total,
            tags=tuple(tags) + server.tags,
            **self._pair_kwargs(server.node, client_node),
        )
        if sid:
            tr.end(self.sim, sid)
        if rpc:
            tr.end(self.sim, rpc)
        self.blocks_read += blocks
        if OBS.enabled:
            OBS.inc(
                self.sim, "nsd.server.bytes", total, server=server.node, dir="out"
            )
        # 4. end-to-end verification at the client, per block, over the
        #    bytes that actually crossed the network (zero sim-time: CPU
        #    cost of a CRC is negligible next to a WAN block transfer).
        if verify:
            for (phys, _offset, _length), data in zip(extents, datas):
                self.checksum_verifications += 1
                if not nsd.verify_full(phys, data):
                    self.checksum_failures += 1
                    if tr:
                        tr.instant(
                            self.sim, "nsd.checksum_mismatch",
                            cat="fault.integrity", lane=lane, nsd=nsd_id,
                            phys=phys, client=client_node,
                        )
                    raise ChecksumError(
                        f"block {phys} on {nsd.name} failed end-to-end verification"
                    )
        return datas[0] if one else datas

    # -- retry ----------------------------------------------------------------

    def _with_retry(self, kind, args):
        """One block RPC (``kind`` "read" or "write") with per-attempt
        timeout, backoff, and failover.

        Each attempt races the RPC against ``retry.rpc_timeout`` in a
        process of its own, so a stuck attempt can be interrupted. An
        attempt that raises :class:`NsdServerDown` (crashed server, lease
        declared) or times out (stuck against a not-yet-declared corpse)
        is abandoned and re-issued after exponential backoff with seeded
        jitter; ``server_of`` routes the re-issue to a live backup once
        the detector has marked the primary down. Raises
        :class:`RpcRetriesExhausted` only when every attempt failed.
        """
        policy = self.retry
        rng = self._retry_rng_for(args[0])
        last: BaseException | None = None
        for attempt in range(1, policy.max_attempts + 1):
            gen = getattr(self, f"_{kind}")(*args)
            proc = self.sim.process(gen, name=f"nsd-{kind}-try{attempt}")
            timer = self.sim.timeout(policy.rpc_timeout)
            try:
                fired = yield self.sim.any_of([proc, timer])
            except NsdServerDown as exc:
                last = exc
            else:
                if proc in fired:
                    return fired[proc]
                # Timer won the race: the attempt is stuck — abandon it.
                self.rpc_timeouts += 1
                last = TimeoutError(f"nsd {kind} attempt {attempt} timed out")
                if proc.is_alive:
                    proc.interrupt("rpc timeout")
            if attempt == policy.max_attempts:
                break
            self.retries += 1
            delay = policy.backoff_delay(attempt, rng)
            if TRACE.enabled:
                TRACE.instant(
                    self.sim, "nsd.rpc_retry", cat="fault.retry",
                    lane="nsd.retry", kind=kind, attempt=attempt,
                    backoff=delay, cause=type(last).__name__,
                )
            yield self.sim.timeout(delay)
        raise RpcRetriesExhausted(
            f"nsd {kind} failed after {policy.max_attempts} attempts: {last}"
        ) from last
