"""The caching gateway cluster and the mounts that run through it.

A :class:`CacheGateway` sits at a remote site between that site's
clients and the home cluster's NSD servers (GPFS later productized the
same shape as AFM/Panache). Local clients mount *through* the gateway
with :class:`GatewayMount`; the data path then looks like:

* **read hit** — control message to a gateway node, local disk service,
  LAN transfer back: no WAN traffic at all while the inode's validity
  lease (:mod:`repro.cache.lease`) is live;
* **read miss** — misses arriving in the same instant (a client
  read-ahead burst) are batched, planned with
  :func:`repro.core.client.plan_transfers`, and fetched over the WAN one
  planned run at a time, then installed in the shared
  :class:`~repro.cache.store.GatewayBlockCache` (charging the gateway's
  local disk for the fill);
* **write-through** — the write crosses the WAN before the client is
  acked; the cached copy is updated in place and stays clean;
* **writeback** — the write is acked after the LAN leg and a local
  media write; a bounded FIFO dirty queue preserves write order and a
  single flusher drains it to the home cluster in runs of same-server
  writes. ``fsync`` (and token revocation) insert a
  **flush barrier**: the barrier completes only when every write of that
  inode enqueued before it has reached home — close-to-open coherence
  and revoke semantics survive the asynchrony.

Every read, hit or miss, and every write is one generator
(:meth:`CacheGateway.read_block`, :meth:`CacheGateway.write_block`)
that runs inside the caller's process, whether the flight recorder is
on, a partition is armed, or the lease lapsed in flight: tracing records
a run, it never reroutes one.

Partition semantics: a WAN cut parks the gateway's fetches, lease
renewals, and flusher RPCs (nothing fails); reads inside a live lease
keep being served from cache, and writeback writes keep being acked
until the dirty-queue bound is hit. At heal the flusher replays the
queue in order and revalidates each queued inode once — a version
advanced by a *foreign* writer during the cut is counted as a conflict
(last-writer-wins, surfaced in the metrics rather than silently merged).

Every home read and write goes through :mod:`repro.core.replication`'s
run functions, which pick the data path (one NSD RPC per run, or
one-block runs through the replica manager), exactly as for a direct
mount.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.cache.lease import LeaseInfo, LeaseServer
from repro.cache.store import GatewayBlockCache
from repro.core.client import Identity, MountedFs, ROOT, plan_transfers
from repro.core.replication import read_run, run_limit, write_run
from repro.obs.registry import OBS
from repro.sim.kernel import Event
from repro.storage.pipes import Pipe
from repro.util.units import MB

#: bytes of one gateway control/ack message (mirrors NsdService).
CONTROL_BYTES = 512.0

WRITE_MODES = ("writeback", "writethrough")


@dataclass
class _QueuedWrite:
    seq: int
    gw: str
    ino: int
    block: int
    nsd_id: int
    phys: int
    lo: int
    payload: "bytes | int"
    version: int  # gateway's lease version for ino at enqueue time


class CacheGateway:
    """A site-local gateway cluster sharing one bounded block cache."""

    def __init__(
        self,
        fs,
        nodes: List[str],
        cache: GatewayBlockCache,
        *,
        name: str = "gw",
        mode: str = "writeback",
        lease_duration: float = 10.0,
        lease_server: Optional[LeaseServer] = None,
        max_dirty: int = 256,
        max_coalesce: int = 8,
        disk_rate: float = MB(400),
        disk_io_latency: float = 0.0002,
        tags: Tuple[str, ...] = ("gateway",),
    ) -> None:
        if not nodes:
            raise ValueError("gateway needs at least one node")
        if mode not in WRITE_MODES:
            raise ValueError(f"mode must be one of {WRITE_MODES}, got {mode!r}")
        self.fs = fs
        self.sim = fs.sim
        self.messages = fs.messages
        self.service = fs.service
        self.engine = fs.service.engine
        self.home_node = fs.manager_node
        self.name = name
        self.nodes = list(nodes)
        self.cache = cache
        self.mode = mode
        self.lease_duration = lease_duration
        # The dirty bound must leave clean slots to evict, or the cache
        # wedges; clamp against the cache geometry.
        self.max_dirty = max(1, min(max_dirty, max(1, cache.slots // 2)))
        self.max_coalesce = max(1, max_coalesce)
        self.tags = tuple(tags)
        self.disks: Dict[str, Pipe] = {
            node: Pipe(
                self.sim,
                rate=disk_rate,
                per_io_latency=disk_io_latency,
                capacity=4,
                name=f"{name}-{node}-disk",
            )
            for node in self.nodes
        }
        if lease_server is None:
            lease_server = getattr(fs, "_gateway_lease_server", None)
            if lease_server is None:
                lease_server = LeaseServer(fs, duration=lease_duration)
                fs._gateway_lease_server = lease_server
        self.lease_server = lease_server
        lease_server.register(self)
        #: client nodes mounted through this gateway (GatewayMount adds).
        self.local_nodes: set = set()
        # -- lease client state
        self._lease: Dict[int, LeaseInfo] = {}
        self._revalidating: Dict[int, Event] = {}
        # -- miss batching
        self._fetching: Dict[Tuple[int, int], Event] = {}
        self._pending: List[tuple] = []
        self._drain_scheduled = False
        # -- writeback queue
        self._dirty_q: Deque[_QueuedWrite] = deque()
        self._seq = 0
        self._flushed_seq = 0
        self._last_seq: Dict[int, int] = {}
        self._space_waiters: List[Event] = []
        self._barriers: List[Tuple[int, Event]] = []
        self._flusher_running = False
        self._partition = None
        self._heals_seen = 0
        # -- counters
        self.served_bytes = 0.0
        self.origin_bytes = 0.0
        self.write_acks = 0
        self.writes_through = 0
        self.writes_flushed = 0
        self.flushed_bytes = 0.0
        self.writeback_stalls = 0
        self.queue_high_water = 0
        self.lease_renewals = 0
        self.lease_breaks = 0
        self.stale_invalidations = 0
        self.stale_hits = 0
        self.conflicts = 0
        if OBS.enabled:
            from repro.obs.wire import attach_gateway

            attach_gateway(self)

    # -- topology ----------------------------------------------------------------

    def node_for(self, ino: int, block: int) -> str:
        """Deterministic owner gateway node for a block (spreads load)."""
        return self.nodes[(ino + block) % len(self.nodes)]

    def lease_holder_node(self, ino: int) -> Optional[str]:
        """Node to push an invalidation to; None when nothing can be stale."""
        lease = self._lease.get(ino)
        if lease is None or lease.expires_at <= self.sim.now:
            return None
        return self.node_for(ino, 0)

    def attach_partition(self, partition) -> None:
        """Wire the WAN partition so heals trigger replay revalidation."""
        self._partition = partition
        self._heals_seen = partition.heals

    def _wan_cut(self, gw: str) -> bool:
        part = self._partition
        return part is not None and part.severed(gw, self.home_node)

    # -- leases ------------------------------------------------------------------

    def lease_broken(self, ino: int, version: int) -> None:
        """Invalidation push from the lease server arrived."""
        lease = self._lease.pop(ino, None)
        if lease is None:
            return
        self.lease_breaks += 1
        self.cache.invalidate_ino(ino)

    def _ensure_lease(self, gw: str, ino: int):
        """Revalidate ``ino``'s lease if missing/expired (one WAN RT,
        deduplicated across concurrent readers)."""
        while True:
            lease = self._lease.get(ino)
            if lease is not None and lease.expires_at > self.sim.now:
                return
            inflight = self._revalidating.get(ino)
            if inflight is not None:
                yield inflight
                continue
            done = self.sim.event(name=f"lease:{ino}")
            self._revalidating[ino] = done
            try:
                yield self.messages.round_trip(
                    gw, self.home_node, request_bytes=256, reply_bytes=256
                )
                self._admit(ino)
                self.lease_renewals += 1
            finally:
                del self._revalidating[ino]
                done.succeed()
            return

    def _admit(self, ino: int) -> None:
        """Record the home version; drop stale cache on a foreign advance."""
        version, writer = self.lease_server.validate(ino)
        old = self._lease.get(ino)
        if (
            old is not None
            and version != old.version
            and writer
            and writer not in self.local_nodes
            and writer not in self.nodes
        ):
            dropped = self.cache.invalidate_ino(ino)
            self.stale_invalidations += dropped
        now = self.sim.now
        self._lease[ino] = LeaseInfo(version, now + self.lease_duration, now)

    # -- read path ---------------------------------------------------------------

    def read_block(
        self, client: str, inode, block_index: int, placed, tags: tuple = ()
    ):
        """Serve one block to a local client (``yield from``); returns
        the data.

        Every read runs this one path inside the caller's process:
        control message → lease check → cache lookup → gateway disk on a
        hit, or the shared batched fetch on a miss → LAN transfer back.
        The lease is checked when the control message lands; a lapsed
        one is renewed by the shared :meth:`_ensure_lease` round trip
        before the lookup. A hit served while the WAN is cut counts as a
        stale hit.
        """
        ino = inode.ino
        bs = self.fs.block_size
        gw = self.node_for(ino, block_index)
        t0 = self.sim.now
        # control leg: client → gateway node (site-local)
        yield self.messages.send(client, gw, nbytes=CONTROL_BYTES)
        yield from self._ensure_lease(gw, ino)
        entry = self.cache.lookup(ino, block_index)
        if entry is None:
            data = yield self._fetch(gw, inode, block_index, placed)
        else:
            if self._wan_cut(gw):
                self.stale_hits += 1  # stale-within-lease service
            data = entry.data
            yield self.disks[gw].transfer(bs)
        yield self.engine.transfer(
            gw, client, bs, tags=tuple(tags) + self.tags,
            **self.service._pair_kwargs(gw, client),
        )
        if entry is None:
            self._served_miss(bs, t0)
        else:
            self._served_hit(ino, bs, t0)
        return data

    def _served_hit(self, ino, bs, t0) -> None:
        self.served_bytes += bs
        if OBS.enabled:
            OBS.inc(self.sim, "cache.read.ok", gw=self.name)
            OBS.observe(
                self.sim, "cache.read.latency", self.sim.now - t0,
                gw=self.name, tier="hit",
            )
            lease = self._lease.get(ino)
            if lease is not None:
                OBS.observe(
                    self.sim, "cache.staleness", self.sim.now - lease.validated_at,
                    gw=self.name,
                )

    def _served_miss(self, bs, t0) -> None:
        self.served_bytes += bs
        if OBS.enabled:
            OBS.inc(self.sim, "cache.read.ok", gw=self.name)
            OBS.observe(
                self.sim, "cache.read.latency", self.sim.now - t0,
                gw=self.name, tier="miss",
            )

    # -- miss batching → coalesced WAN fetch -------------------------------------

    def _fetch(self, gw: str, inode, block_index: int, placed) -> Event:
        key = (inode.ino, block_index)
        inflight = self._fetching.get(key)
        if inflight is not None:
            return inflight
        done = self.sim.event(name=f"gwfetch:{key}")
        self._fetching[key] = done
        self._pending.append((gw, inode, block_index, placed, done))
        if not self._drain_scheduled:
            self._drain_scheduled = True
            self.sim.process(self._drain(), name="gw-fetch-drain")
        return done

    def _drain(self):
        # One zero-delay hop so a read-ahead burst lands in one batch.
        yield self.sim.timeout(0.0)
        self._drain_scheduled = False
        pending, self._pending = self._pending, []
        # Plan per (gateway node, NSD) group, groups in arrival order: a
        # triple's "NSD" slot carries its group's rank and its "block
        # index" slot the batch position, so runs map back to their
        # waiters even across different inodes.
        groups: Dict[Tuple[str, int], int] = {}
        triples = [
            (groups.setdefault((gw, placed[0]), len(groups)), placed[1], idx)
            for idx, (gw, _inode, _block, placed, _done) in enumerate(pending)
        ]
        keys = list(groups)
        for run in plan_transfers(triples, run_limit(self.fs, self.max_coalesce)):
            gw, nsd_id = keys[run.nsd_id]
            self.sim.process(
                self._fetch_run(gw, nsd_id, run.phys, [pending[i] for i in run.blocks]),
                name="gw-fetch-run",
            )

    def _fetch_run(self, gw, nsd_id, phys_list, items):
        bs = self.fs.block_size
        _gw, inode, block, _placed, _done = items[0]
        try:
            datas = yield from read_run(
                self.fs, gw, inode.ino, block, nsd_id, phys_list, self.tags + ("read",)
            )
        except Exception as exc:
            for _gw, inode, block, _placed, done in items:
                del self._fetching[(inode.ino, block)]
                done.fail(exc)
            return
        total = bs * len(items)
        self.origin_bytes += total
        # install: one aggregated local media write for the whole run
        yield self.disks[gw].transfer(total)
        for (_gw, inode, block, _placed, done), data in zip(items, datas):
            if not self.fs.store_data:
                data = None
            self.cache.insert(inode.ino, block, data, bs)
            del self._fetching[(inode.ino, block)]
            done.succeed(data)

    # -- write path --------------------------------------------------------------

    def write_block(
        self, client, inode, block, nsd_id, phys, lo, payload, tags: tuple = ()
    ):
        """Accept one block write from a local client (``yield from``);
        returns at the ack, whose timing the mode decides."""
        ino = inode.ino
        gw = self.node_for(ino, block)
        length = payload if isinstance(payload, int) else len(payload)
        t0 = self.sim.now
        # data leg: client → gateway (site-local), then local media write
        yield self.engine.transfer(
            client, gw, max(length, 1), tags=tuple(tags) + self.tags,
            **self.service._pair_kwargs(client, gw),
        )
        yield self.disks[gw].transfer(max(length, 1))
        # A partial write into an uncached block must read-modify-write
        # against home first — otherwise a later cache hit would serve a
        # block whose untouched bytes read as zeros.
        partial = lo != 0 or length != self.fs.block_size
        if partial and self.cache.peek(ino, block) is None:
            yield self._fetch(gw, inode, block, (nsd_id, phys))
        if self.mode == "writethrough":
            self.cache.apply_write(
                ino, block, lo,
                None if isinstance(payload, int) else payload,
                length, dirty_seq=0,
            )
            yield from self._home_write(gw, ino, block, nsd_id, [(phys, lo, payload)])
            self.writes_through += 1
        else:
            yield from self._enqueue(gw, inode, block, nsd_id, phys, lo, payload)
        self.write_acks += 1
        # ack message gateway → client
        yield self.messages.send(gw, client, nbytes=CONTROL_BYTES)
        if OBS.enabled:
            OBS.observe(
                self.sim, "cache.write.latency", self.sim.now - t0,
                gw=self.name, mode=self.mode,
            )

    def _home_write(self, gw, ino, block, nsd_id, extents):
        """Write a run of ``(phys, offset, data)`` extents to the home
        cluster (``yield from``); ``block`` of inode ``ino`` is the first
        extent's block."""
        return write_run(
            self.fs, gw, ino, block, nsd_id, extents, self.tags + ("write",)
        )

    def _enqueue(self, gw, inode, block, nsd_id, phys, lo, payload):
        """Append to the bounded dirty queue (backpressure when full)."""
        while len(self._dirty_q) >= self.max_dirty:
            self.writeback_stalls += 1
            gate = self.sim.event(name="gw-queue-space")
            self._space_waiters.append(gate)
            yield gate
        ino = inode.ino
        self._seq += 1
        seq = self._seq
        lease = self._lease.get(ino)
        self._dirty_q.append(
            _QueuedWrite(
                seq, gw, ino, block, nsd_id, phys, lo, payload,
                version=lease.version if lease is not None else 0,
            )
        )
        self._last_seq[ino] = seq
        self.queue_high_water = max(self.queue_high_water, len(self._dirty_q))
        self.cache.apply_write(
            ino, block, lo,
            None if isinstance(payload, int) else payload,
            payload if isinstance(payload, int) else len(payload),
            dirty_seq=seq,
        )
        if not self._flusher_running:
            self._flusher_running = True
            self.sim.process(self._flusher(), name=f"{self.name}-flusher")

    def _flusher(self):
        """Single ordered drain of the dirty queue to the home cluster."""
        while self._dirty_q:
            part = self._partition
            if part is not None and part.heals > self._heals_seen:
                # A WAN partition healed with writes still queued: replay
                # continues in order, but first revalidate each queued
                # inode once — a foreign version advance during the cut
                # is a write conflict (detected, counted, last-writer-wins).
                self._heals_seen = part.heals
                yield from self._replay_check()
            head = self._dirty_q.popleft()
            batch: List[_QueuedWrite] = [head]
            limit = run_limit(self.fs, self.max_coalesce)
            while (
                self._dirty_q
                and len(batch) < limit
                and self._dirty_q[0].gw == head.gw
                and self._dirty_q[0].nsd_id == head.nsd_id
            ):
                batch.append(self._dirty_q.popleft())
            total = sum(
                q.payload if isinstance(q.payload, int) else len(q.payload)
                for q in batch
            )
            # read the dirty data back off the gateway's local media
            yield self.disks[head.gw].transfer(max(total, 1))
            yield from self._home_write(
                head.gw, head.ino, head.block, head.nsd_id,
                [(q.phys, q.lo, q.payload) for q in batch],
            )
            for q in batch:
                self.writes_flushed += 1
                self.flushed_bytes += (
                    q.payload if isinstance(q.payload, int) else len(q.payload)
                )
                self.cache.mark_flushed(q.ino, q.block, q.seq)
            self._flushed_seq = batch[-1].seq
            self._wake_barriers()
            self._wake_space()
        self._flusher_running = False
        self._wake_barriers()

    def _replay_check(self):
        inos: List[int] = []
        for q in self._dirty_q:
            if q.ino not in inos:
                inos.append(q.ino)
        for ino in inos:
            gw = self.node_for(ino, 0)
            yield self.messages.round_trip(
                gw, self.home_node, request_bytes=256, reply_bytes=256
            )
            version, writer = self.lease_server.validate(ino)
            queued_version = max(
                (q.version for q in self._dirty_q if q.ino == ino), default=0
            )
            if (
                version != queued_version
                and writer
                and writer not in self.local_nodes
                and writer not in self.nodes
            ):
                self.conflicts += 1
            self._admit(ino)
            self.lease_renewals += 1

    def _wake_barriers(self) -> None:
        if not self._barriers:
            return
        ready = [(t, e) for t, e in self._barriers if t <= self._flushed_seq]
        self._barriers = [
            (t, e) for t, e in self._barriers if t > self._flushed_seq
        ]
        for _t, evt in ready:
            evt.succeed()

    def _wake_space(self) -> None:
        while self._space_waiters and len(self._dirty_q) < self.max_dirty:
            self._space_waiters.pop(0).succeed()

    def flush_barrier(self, ino: Optional[int] = None) -> Event:
        """Event firing once every queued write (of ``ino``, or all) has
        reached the home cluster. Immediate outside writeback mode."""
        evt = self.sim.event(name=f"gwbarrier:{ino}")
        target = (
            self._last_seq.get(ino, 0) if ino is not None else self._seq
        )
        if self.mode != "writeback" or target <= self._flushed_seq:
            evt.succeed()
        else:
            self._barriers.append((target, evt))
        return evt

    # -- reporting ---------------------------------------------------------------

    @property
    def dirty_queue_depth(self) -> int:
        return len(self._dirty_q)

    @property
    def origin_offload(self) -> float:
        """Fraction of bytes served to clients that never crossed the WAN."""
        if not self.served_bytes:
            return 0.0
        return max(0.0, 1.0 - self.origin_bytes / self.served_bytes)

    def metrics(self) -> Dict[str, float]:
        out = {
            "served_bytes": float(self.served_bytes),
            "origin_bytes": float(self.origin_bytes),
            "origin_offload": self.origin_offload,
            "write_acks": float(self.write_acks),
            "writes_through": float(self.writes_through),
            "writes_flushed": float(self.writes_flushed),
            "flushed_bytes": float(self.flushed_bytes),
            "writeback_stalls": float(self.writeback_stalls),
            "queue_high_water": float(self.queue_high_water),
            "dirty_queue_depth": float(self.dirty_queue_depth),
            "lease_renewals": float(self.lease_renewals),
            "lease_breaks": float(self.lease_breaks),
            "stale_invalidations": float(self.stale_invalidations),
            "stale_hits": float(self.stale_hits),
            "conflicts": float(self.conflicts),
        }
        out.update({f"cache_{k}": v for k, v in self.cache.stats().items()})
        return out


class GatewayMount(MountedFs):
    """A client mount whose block traffic runs through a gateway.

    Everything above the block layer (tokens, page pool, read-ahead,
    write-behind, metadata) is the stock :class:`MountedFs`; only the
    remote read/write hooks are redirected, plus a gateway flush barrier
    on ``fsync`` and token revocation so writeback stays ordered behind
    durability and coherence points.
    """

    def __init__(
        self,
        gateway: CacheGateway,
        node: str,
        identity: Identity = ROOT,
        access: str = "rw",
        **mount_kwargs,
    ) -> None:
        # Client-side coalescing stays off: the gateway batches misses
        # itself, so WAN scatter-gather happens exactly once, at the edge.
        mount_kwargs.pop("max_coalesce", None)
        super().__init__(
            gateway.fs, node, identity=identity, access=access, **mount_kwargs
        )
        self.gateway = gateway
        gateway.local_nodes.add(node)

    def _read_run(self, inode, run):
        # Runs here are one block (max_coalesce stays 1).
        return [(
            yield from self.gateway.read_block(
                self.node, inode, run.blocks[0], (run.nsd_id, run.phys[0]),
                tags=self.tags + ("read",),
            )
        )]

    def _write_run(self, inode, run, extents):
        ((phys, lo, payload),) = extents
        return self.gateway.write_block(
            self.node, inode, run.blocks[0], run.nsd_id, phys, lo, payload,
            tags=self.tags + ("write",),
        )

    def _fsync(self, ino: int):
        yield from super()._fsync(ino)
        yield self.gateway.flush_barrier(ino)

    def _revoke_flush(self, ino: int, lo: int, hi: int):
        yield from super()._revoke_flush(ino, lo, hi)
        yield self.gateway.flush_barrier(ino)
