"""Mounted filesystem instances and file handles.

A :class:`MountedFs` is what a node gets from ``mmmount``: a POSIX-ish API
whose every operation is a simulation process (returns an event). The data
path implements the GPFS client behaviours the paper's throughput depends
on:

* **striping fan-out** — consecutive blocks live on different NSDs, so one
  streaming file produces flows to many servers at once;
* **write-behind** — writes land in the page pool and are flushed by a
  bounded pool of concurrent flushers (durability via ``fsync``/``close``);
* **read-ahead** — sequential reads prefetch upcoming blocks;
* **token caching** — byte-range tokens are acquired once and kept until a
  conflicting client forces a revoke, which flushes and invalidates the
  affected cache range (close-to-open coherence across sites);
* **one block-I/O path** — demand reads, read-ahead, read-modify-write
  and write-behind all plan their blocks with :func:`plan_transfers` and
  move each planned run through one RPC. ``max_coalesce`` bounds a run:
  above 1, contiguous same-server physical blocks share a scatter-gather
  RPC; at the default of 1 every run is one block, issued in the order a
  per-block client issues them, so calibrated experiment shapes are
  untouched. Replicated filesystems keep one-block runs (replica fan-out
  stays per block); :mod:`repro.core.replication` makes that choice.

Identity: each mount carries an :class:`Identity` (numeric uid/gid plus
optional GSI DN). Files record both; permission checks prefer the DN when
present (§6's extension).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.filesystem import Filesystem
from repro.core.inode import Inode
from repro.core.namespace import (
    IsADirectory,
    NoSuchFile,
    PermissionDenied,
)
from repro.core.pagepool import PagePool
from repro.core.replication import read_run, run_limit, write_run
from repro.core.tokens import RO, RW, ManagerMovedError, TokenClient
from repro.obs.registry import OBS
from repro.sim.kernel import Event, Simulation
from repro.sim.resources import Resource
from repro.util.units import MiB


@dataclass(frozen=True)
class Identity:
    """Who is doing IO: numeric ids plus optional GSI DN."""

    uid: int
    gid: int = 100
    dn: Optional[str] = None
    username: str = ""

    @property
    def is_root(self) -> bool:
        return self.uid == 0


ROOT = Identity(uid=0, gid=0, username="root")

#: Sentinel end offset for whole-file desired token ranges.
WHOLE_FILE = 1 << 62


#: Planner placement of a hole (an unallocated block): it sorts before
#: every NSD and never extends a run, so each hole is zero-filled alone.
HOLE = (-1, -1)


class TransferRun(NamedTuple):
    """One planned scatter-gather RPC: physical blocks of one NSD.

    ``phys`` and ``blocks`` are parallel: ``phys[i]`` is the physical block
    backing logical block index ``blocks[i]``.
    """

    nsd_id: int
    phys: Tuple[int, ...]
    blocks: Tuple[int, ...]


def plan_transfers(
    placed: "List[Tuple[int, int, int]]", max_coalesce: int
) -> "List[TransferRun]":
    """Group ``(nsd_id, phys, block_index)`` triples into runs.

    With ``max_coalesce == 1`` every triple is a run of its own, in input
    order: the order a per-block client issues its RPCs in. Above 1,
    triples are sorted by ``(nsd_id, phys)`` so a striped file's blocks
    regroup into per-server sequential runs; a run breaks on an NSD
    change, a physical-address gap, or reaching ``max_coalesce`` blocks.
    Deterministic: equal inputs always yield identical plans.
    """
    if max_coalesce == 1:
        return [TransferRun(n, (phys,), (block,)) for n, phys, block in placed]
    runs: List[TransferRun] = []
    for nsd_id, phys, block in sorted(placed):
        last = runs[-1] if runs else None
        if (
            last is not None
            and nsd_id == last.nsd_id
            and phys == last.phys[-1] + 1
            and len(last.phys) < max_coalesce
        ):
            runs[-1] = TransferRun(nsd_id, last.phys + (phys,), last.blocks + (block,))
        else:
            runs.append(TransferRun(nsd_id, (phys,), (block,)))
    return runs


class FileHandle:
    """An open file."""

    def __init__(self, mount: "MountedFs", inode: Inode, path: str, mode: str) -> None:
        self.mount = mount
        self.inode = inode
        self.path = path
        self.mode = mode
        self.pos = 0
        self.open = True
        self._last_block = -2  # sequentiality detector for read-ahead
        self._ra_edge = -1  # highest block index already prefetched
        self._token_run = 0  # current token request span (doubles on misses)

    @property
    def readable(self) -> bool:
        return "r" in self.mode or "+" in self.mode

    @property
    def writable(self) -> bool:
        return any(c in self.mode for c in "wa+")

    def seek(self, offset: int) -> None:
        if offset < 0:
            raise ValueError("cannot seek before start of file")
        self.pos = offset


class MountedFs:
    """One node's mount of a :class:`Filesystem`."""

    def __init__(
        self,
        fs: Filesystem,
        node: str,
        identity: Identity = ROOT,
        access: str = "rw",
        pagepool_bytes: int = MiB(256),
        readahead: int = 8,
        writebehind: int = 8,
        max_coalesce: int = 1,
        tags: Tuple[str, ...] = (),
    ) -> None:
        if access not in ("ro", "rw"):
            raise ValueError("access must be 'ro' or 'rw'")
        if readahead < 0 or writebehind < 1:
            raise ValueError("readahead must be >=0 and writebehind >=1")
        if max_coalesce < 1:
            raise ValueError("max_coalesce must be >=1")
        self.fs = fs
        self.sim: Simulation = fs.sim
        self.node = node
        self.identity = identity
        self.access = access
        self.tags = tags
        self.pool = PagePool(int(pagepool_bytes), fs.block_size)
        self.readahead = readahead
        self.max_coalesce = max_coalesce
        self.tokens = TokenClient(fs.token_manager, node, self._revoke_flush)
        self._flush_slots = Resource(self.sim, capacity=writebehind, name=f"{node}-flush")
        self._flushing: Dict[Tuple[int, int], Event] = {}
        self._fetching: Dict[Tuple[int, int], Event] = {}
        # Writeback errors held for fsync: a background flush that fails
        # (server crash, replica quorum lost) records its error here and
        # the next fsync on the inode raises it — POSIX EIO semantics, so
        # "fsync returned" really means "data is on stable storage".
        self._flush_errors: Dict[int, BaseException] = {}
        self.flush_failures = 0
        self.bytes_read = 0
        self.bytes_written = 0
        fs.mounts.append(self)
        # Dirty throttle: block writers once half the pool is dirty.
        self._max_dirty_blocks = max(1, int(pagepool_bytes // fs.block_size // 2))
        if OBS.enabled:
            from repro.obs.wire import attach_pagepool

            attach_pagepool(self)

    # ==================== public API (each returns an event) ====================

    def open(self, path: str, mode: str = "r", create: bool = False) -> Event:
        """Open ``path``; the event's value is a :class:`FileHandle`."""
        if not any(c in mode for c in "rwa+"):
            raise ValueError(f"bad open mode {mode!r}")
        return self.sim.process(self._open(path, mode, create), name=f"open:{path}")

    def read(self, handle: FileHandle, length: int) -> Event:
        """Sequential read at the handle position; value as :meth:`pread`.

        The handle advances by the number of bytes read.
        """
        evt = self.pread(handle, handle.pos, length)

        def _advance(e: Event) -> None:
            if e.ok:
                got = e.value
                handle.pos += got if isinstance(got, int) else len(got)

        evt.callbacks.append(_advance)
        return evt

    def pread(self, handle: FileHandle, offset: int, length: int) -> Event:
        """Positional read, short at EOF.

        The value is ``bytes`` on a filesystem that keeps data and the
        byte count (an ``int``) on a size-only one, the same length
        :meth:`pwrite` takes there.
        """
        self._check_handle(handle, want_read=True)
        if offset < 0 or length < 0:
            raise ValueError("offset/length must be non-negative")
        gen = self._pread(handle, offset, length)
        if OBS.enabled:
            gen = self._obs_pread(gen)
        return self.sim.process(gen, name="pread")

    def _obs_pread(self, gen):
        """Telemetry wrapper: client-visible read latency + ok/error counts.

        ``yield from`` adds no events, so the wrapped read is
        event-for-event identical to the bare one. A ``GeneratorExit`` (the
        cyclic GC closing a read still parked when its run ended) is not an
        error.
        """
        t0 = self.sim.now
        try:
            data = yield from gen
        except Exception:
            OBS.inc(self.sim, "client.read.errors", client=self.node)
            raise
        OBS.observe(
            self.sim, "client.read.latency", self.sim.now - t0, client=self.node
        )
        OBS.inc(self.sim, "client.read.ok", client=self.node)
        return data

    def write(self, handle: FileHandle, data: "bytes | int") -> Event:
        """Sequential write at the handle position (write-behind)."""
        length = data if isinstance(data, int) else len(data)
        evt = self.pwrite(handle, handle.pos, data)

        def _advance(e: Event) -> None:
            if e.ok:
                handle.pos += length

        evt.callbacks.append(_advance)
        return evt

    def pwrite(self, handle: FileHandle, offset: int, data: "bytes | int") -> Event:
        """Positional write. ``data`` may be a length in size-only mode.

        Returns when the data is accepted into the page pool (write-behind);
        durability requires :meth:`fsync` or :meth:`close`.
        """
        self._check_handle(handle, want_write=True)
        if offset < 0:
            raise ValueError("offset must be non-negative")
        if isinstance(data, int):
            if data < 0:
                raise ValueError("length must be non-negative")
            if self.fs.store_data:
                raise ValueError("size-only writes need a store_data=False filesystem")
        return self.sim.process(self._pwrite(handle, offset, data), name="pwrite")

    def fsync(self, handle: FileHandle) -> Event:
        """Flush every dirty block of the file to its NSDs."""
        self._check_handle(handle)
        return self.sim.process(self._fsync(handle.inode.ino), name="fsync")

    def close(self, handle: FileHandle) -> Event:
        """fsync + release the handle."""
        self._check_handle(handle)
        return self.sim.process(self._close(handle), name="close")

    # -- metadata ops ------------------------------------------------------------

    def mkdir(self, path: str) -> Event:
        return self.sim.process(self._meta_mkdir(path), name=f"mkdir:{path}")

    def listdir(self, path: str) -> Event:
        return self.sim.process(self._meta_listdir(path), name=f"ls:{path}")

    def stat(self, path: str) -> Event:
        return self.sim.process(self._meta_stat(path), name=f"stat:{path}")

    def unlink(self, path: str) -> Event:
        return self.sim.process(self._meta_unlink(path), name=f"rm:{path}")

    def rename(self, old: str, new: str) -> Event:
        return self.sim.process(self._meta_rename(old, new), name="rename")

    def truncate(self, handle: FileHandle, size: int) -> Event:
        self._check_handle(handle, want_write=True)
        if size < 0:
            raise ValueError("size must be non-negative")
        return self.sim.process(self._truncate(handle, size), name="truncate")

    # ==================== permission & validation helpers ====================

    def _check_handle(self, handle: FileHandle, want_read: bool = False,
                      want_write: bool = False) -> None:
        if handle.mount is not self:
            raise ValueError("handle belongs to a different mount")
        if not handle.open:
            raise ValueError(f"handle for {handle.path!r} is closed")
        if want_read and not handle.readable:
            raise PermissionDenied(f"{handle.path!r} not open for reading")
        if want_write and not handle.writable:
            raise PermissionDenied(f"{handle.path!r} not open for writing")

    def _may(self, inode: Inode, want: str) -> bool:
        ident = self.identity
        if ident.is_root:
            return True
        if inode.owner_matches(ident.uid, ident.dn):
            return True
        bit = {"r": 0o4, "w": 0o2}[want]
        if inode.gid == ident.gid and inode.mode & (bit << 3):
            return True
        return bool(inode.mode & bit)

    def _meta_rtt(self) -> Event:
        """One metadata round trip to the filesystem manager node."""
        return self.fs.messages.round_trip(self.node, self.fs.manager_node,
                                           request_bytes=256, reply_bytes=256)

    #: Token request spans start here and double on every miss, so a
    #: streaming client pays O(log(file size)) token round trips even when
    #: another holder blocks the whole-file desired range.
    TOKEN_RUN_MIN = 8
    TOKEN_RUN_MAX_BLOCKS = 512

    def _ensure_token(self, handle: FileHandle, offset: int, length: int, mode: str) -> Event:
        """Token acquisition with whole-file desired range + run doubling.

        Ranges are rounded outward to block boundaries: the page pool caches
        whole blocks, so a finer-grained token would let a neighbour's write
        to the same block bypass our revoke-and-invalidate and leave a stale
        cached copy (GPFS likewise locks at block granularity).
        """
        bs = self.fs.block_size
        ino = handle.inode.ino
        start = (offset // bs) * bs
        end = ((offset + length + bs - 1) // bs) * bs
        if self.tokens.has(ino, start, end, mode):
            return self.tokens.ensure(ino, start, end, mode)  # cached, instant
        if handle._token_run == 0:
            handle._token_run = self.TOKEN_RUN_MIN * bs
        else:
            handle._token_run = min(
                handle._token_run * 2, self.TOKEN_RUN_MAX_BLOCKS * bs
            )
        span_end = max(end, start + handle._token_run)
        return self.tokens.ensure(
            ino, start, span_end, mode, desired=(0, WHOLE_FILE)
        )

    def _token_fenced(self, handle: FileHandle, offset: int, length: int, mode: str):
        """``yield from`` wrapper: re-issue token RPCs across takeovers.

        :class:`~repro.core.tokens.TokenClient` already redirects a
        bounded number of times; this outer loop keeps an IO alive across
        back-to-back manager moves instead of surfacing a spurious error
        to the application. ``yield from`` adds no events, so the armed
        and unarmed paths are event-for-event identical.
        """
        while True:
            try:
                yield self._ensure_token(handle, offset, length, mode)
            except ManagerMovedError:
                continue
            return

    # ==================== processes ====================

    def _open(self, path, mode, create):
        yield self._meta_rtt()
        ns = self.fs.namespace
        wants_write = any(c in mode for c in "wa+")
        if wants_write and self.access == "ro":
            raise PermissionDenied(
                f"filesystem {self.fs.name!r} is mounted read-only on {self.node}"
            )
        try:
            inode = ns.resolve(path)
        except NoSuchFile:
            if not (create or mode.startswith("w") or mode.startswith("a")):
                raise
            if self.access == "ro":
                raise PermissionDenied(f"read-only mount cannot create {path!r}")
            inode = ns.create_file(
                path,
                self.sim.now,
                uid=self.identity.uid,
                gid=self.identity.gid,
                owner_dn=self.identity.dn,
            )
        if inode.is_dir:
            raise IsADirectory(path)
        if "r" in mode or "+" in mode:
            if not self._may(inode, "r"):
                raise PermissionDenied(f"{path!r}: read permission denied")
        if wants_write:
            if not self._may(inode, "w"):
                raise PermissionDenied(f"{path!r}: write permission denied")
        handle = FileHandle(self, inode, path, mode)
        if mode.startswith("w") and inode.size > 0:
            yield self.sim.process(self._truncate(handle, 0), name="otrunc")
        if mode.startswith("a"):
            handle.pos = inode.size
        inode.atime = self.sim.now
        return handle

    def _pwrite(self, handle: FileHandle, offset: int, data):
        inode = handle.inode
        length = data if isinstance(data, int) else len(data)
        if length == 0:
            yield self.sim.timeout(0.0)
            return 0
        yield from self._token_fenced(handle, offset, length, RW)
        geometry = self.fs.geometry
        for piece in geometry.split(offset, length):
            # Allocate now so ENOSPC surfaces at write() (as POSIX expects),
            # not inside an asynchronous flusher.
            self.fs.ensure_block(inode, piece.block_index)
            # Dirty throttle: wait for flushers before adding more dirty data.
            while self.pool.total_dirty_blocks >= self._max_dirty_blocks:
                self._kick_flushes(inode.ino, self.pool.dirty_blocks(inode.ino))
                pending = list(self._flushing.values())
                if not pending:
                    break
                yield self.sim.any_of(pending)
            partial = not (piece.offset == 0 and piece.length == geometry.block_size)
            key = (inode.ino, piece.block_index)
            if partial and key not in self.pool and self.fs.lookup_block(
                inode, piece.block_index
            ) is not None:
                # read-modify-write: fetch the existing block first
                yield self._fetch_blocks(inode, [piece.block_index])[0]
            if isinstance(data, int):
                chunk = None
            else:
                lo, _ = geometry.span_bytes(piece)
                rel = lo - offset
                chunk = data[rel : rel + piece.length]
            self.pool.write(inode.ino, piece.block_index, piece.offset, chunk, piece.length)
        inode.size = max(inode.size, offset + length)
        inode.mtime = self.sim.now
        self.bytes_written += length
        self._kick_flushes(inode.ino, self.pool.dirty_blocks(inode.ino))
        return length

    def _pread(self, handle: FileHandle, offset: int, length: int):
        inode = handle.inode
        length = min(length, max(0, inode.size - offset))
        if length == 0:
            yield self.sim.timeout(0.0)
            return b"" if self.fs.store_data else 0
        yield from self._token_fenced(handle, offset, length, RO)
        geometry = self.fs.geometry
        pieces = geometry.split(offset, length)
        first_block = pieces[0].block_index
        last_block = pieces[-1].block_index
        # Read-ahead on sequential access: keep the prefetch window issued
        # *before* blocking on this read's own blocks, and anchor it at the
        # per-handle edge so the window stays `readahead` blocks deep no
        # matter how fast the application drains the cache. (Issuing it
        # after the wait collapses the pipeline to the read size and costs
        # a full WAN RTT per read.)
        sequential = first_block in (handle._last_block, handle._last_block + 1)
        ahead: List[int] = []
        if self.readahead and sequential:
            max_block = (max(0, inode.size - 1)) // geometry.block_size
            edge_end = min(last_block + self.readahead, max_block)
            for nxt in range(max(last_block + 1, handle._ra_edge + 1), edge_end + 1):
                if self.pool.peek(inode.ino, nxt) is None:
                    ahead.append(nxt)
            handle._ra_edge = max(handle._ra_edge, edge_end)
        need = [
            piece.block_index
            for piece in pieces
            if self.pool.peek(inode.ino, piece.block_index) is None
        ]
        # One plan over the read-ahead window and then the read's own
        # misses: striped neighbours regroup into per-server runs, and
        # one-block runs go out in this order. Await only the read's own
        # blocks; read-ahead completes asynchronously.
        fetches = self._fetch_blocks(inode, ahead + need)[len(ahead):]
        if fetches:
            yield self.sim.all_of(fetches)
        handle._last_block = last_block
        # assemble; a block may have been evicted between its fetch and this
        # point when the read is larger than the page pool — re-fetch it
        # (bounded, so a broken pool cannot livelock the read). A size-only
        # read takes every block through pool.get too: it moves LRU order
        # and the hit counters, though only the count is returned.
        store_data = self.fs.store_data
        out: List["bytes | memoryview"] = []
        for piece in pieces:
            entry = self.pool.get(inode.ino, piece.block_index)
            attempts = 0
            while entry is None and attempts < 8:
                yield self._fetch_blocks(inode, [piece.block_index])[0]
                entry = self.pool.get(inode.ino, piece.block_index)
                attempts += 1
            if entry is None:
                raise MemoryError(
                    f"page pool cannot hold block {piece.block_index} long "
                    "enough to assemble a read (pool too small?)"
                )
            if store_data:
                # Zero-copy slice: cached blobs are immutable bytes (pool
                # writes replace the object, never mutate it), so a view
                # stays valid across the loop and join() copies each piece
                # exactly once instead of twice.
                end = piece.offset + piece.length
                piece_data = memoryview(entry.data)[piece.offset : end]
                if len(piece_data) < piece.length:
                    piece_data = bytes(piece_data) + b"\x00" * (
                        piece.length - len(piece_data)
                    )
                out.append(piece_data)
        inode.atime = self.sim.now
        self.bytes_read += length
        if not store_data:
            return length
        return b"".join(out)

    def _fetch_blocks(self, inode: Inode, indices: List[int]) -> List[Event]:
        """Fetch blocks into the pool; returns one done event per index.

        A block already in flight reuses its event. The others are planned
        into runs (:func:`plan_transfers`), each read by one process;
        holes are zero-filled without touching the network.
        """
        ino = inode.ino
        events: List[Event] = []
        todo: List[Tuple[int, int, int]] = []
        for block in indices:
            key = (ino, block)
            done = self._fetching.get(key)
            if done is None:
                done = self._fetching[key] = self.sim.event(name="fetch")
                nsd_id, phys = self.fs.lookup_block(inode, block) or HOLE
                todo.append((nsd_id, phys, block))
            events.append(done)
        for run in plan_transfers(todo, run_limit(self.fs, self.max_coalesce)):
            self.sim.process(self._fill_run(inode, run), name="fetch-run")
        return events

    def _fill_run(self, inode: Inode, run: TransferRun):
        """Read one planned run into the pool, then fire each block's event."""
        ino = inode.ino
        try:
            if run.nsd_id == HOLE[0]:
                yield self.sim.timeout(0.0)
                datas = [bytes(self.fs.block_size) if self.fs.store_data else None]
            else:
                datas = yield from self._read_run(inode, run)
        except Exception as exc:
            # Throw into every waiter instead of leaving them parked
            # forever; an unawaited read-ahead fetch just drops its
            # failure (defused) and a later read retries.
            for block in run.blocks:
                done = self._fetching.pop((ino, block))
                done._defused = True
                done.fail(exc)
            return
        for block, data in zip(run.blocks, datas):
            if self.pool.peek(ino, block) is None:
                self.pool.put_clean(
                    ino, block, data if self.fs.store_data else None, self.fs.block_size
                )
            self._fetching.pop((ino, block)).succeed()

    def _read_run(self, inode: Inode, run: TransferRun):
        """Read one run from home (``yield from``; returns each block's
        data); subclasses reroute (caching gateway)."""
        return read_run(
            self.fs, self.node, inode.ino, run.blocks[0], run.nsd_id, run.phys,
            self.tags + ("read",),
        )

    def _write_run(self, inode: Inode, run: TransferRun, extents):
        """Write one run's ``(phys, offset, data)`` extents home
        (``yield from``); subclasses reroute (caching gateway)."""
        return write_run(
            self.fs, self.node, inode.ino, run.blocks[0], run.nsd_id, extents,
            self.tags + ("write",),
        )

    # -- write-behind -----------------------------------------------------------

    def _kick_flushes(self, ino: int, blocks: List[int]) -> None:
        """Plan the dirty ``blocks`` of ``ino`` not yet in flight into
        flush runs.

        Each block gets its own done event in ``self._flushing``, so
        ``_fsync`` and ``_revoke_flush`` wait on blocks, not runs.
        """
        inode = None
        placed: List[Tuple[int, int, int]] = []
        for block in blocks:
            key = (ino, block)
            if key in self._flushing:
                continue
            if inode is None:
                inode = self.fs.inodes.get(ino)
            self._flushing[key] = self.sim.event(name="flush")
            nsd_id, phys = self.fs.ensure_block(inode, block)
            placed.append((nsd_id, phys, block))
        if not placed:
            return
        for run in plan_transfers(placed, run_limit(self.fs, self.max_coalesce)):
            self.sim.process(self._flush_run(inode, run), name="flush-run")

    def _flush_run(self, inode: Inode, run: TransferRun):
        """Write one planned run back through one RPC, holding one flush slot.

        Once the slot is granted each block is checked again: a block
        cleaned in the meantime drops out (an emptied run sends nothing),
        and the physical block is looked up afresh, in case a truncate
        freed it and a later write allocated another.
        """
        ino = inode.ino
        try:
            with self._flush_slots.request() as slot:
                yield slot
                extents: List[Tuple[int, int, "bytes | int"]] = []
                for block in run.blocks:
                    entry = self.pool.peek(ino, block)
                    if entry is None or not entry.dirty:
                        continue
                    phys = self.fs.ensure_block(inode, block)[1]
                    lo, hi = entry.dirty_lo, entry.dirty_hi
                    if entry.data is not None:
                        payload: "bytes | int" = entry.data[lo:hi]
                        if len(payload) < hi - lo:
                            payload = payload + b"\x00" * (hi - lo - len(payload))
                    else:
                        payload = hi - lo
                    self.pool.mark_clean(ino, block)  # rewrites re-dirty and re-flush
                    extents.append((phys, lo, payload))
                if extents:
                    try:
                        yield from self._write_run(inode, run, extents)
                    except OSError as exc:
                        self.flush_failures += 1
                        self._flush_errors.setdefault(ino, exc)
        finally:
            for block in run.blocks:
                self._flushing.pop((ino, block)).succeed()

    def _fsync(self, ino: int):
        # Loop: new writes may dirty blocks while earlier flushes drain.
        while True:
            self._kick_flushes(ino, self.pool.dirty_blocks(ino))
            pending = [evt for key, evt in self._flushing.items() if key[0] == ino]
            if not pending:
                break
            yield self.sim.all_of(pending)
        yield self.sim.timeout(0.0)
        error = self._flush_errors.pop(ino, None)
        if error is not None:
            # Surface the writeback failure exactly once (EIO semantics);
            # the caller must not treat this write as durable.
            raise error

    def _close(self, handle: FileHandle):
        yield self.sim.process(self._fsync(handle.inode.ino), name="close-fsync")
        handle.open = False
        return None

    def _revoke_flush(self, ino: int, lo: int, hi: int):
        """Token revoke: flush dirty data in range, drop cached blocks."""
        blocks = self.pool.dirty_blocks(ino, lo, hi)
        self._kick_flushes(ino, blocks)
        pending = [
            evt
            for key, evt in self._flushing.items()
            if key[0] == ino and key[1] in set(blocks)
        ]
        if pending:
            yield self.sim.all_of(pending)
        else:
            yield self.sim.timeout(0.0)
        # coherence: drop (now clean) cache entries in the revoked range
        bs = self.fs.block_size
        for block in range(lo // bs, (max(lo, hi - 1)) // bs + 1):
            self.pool.invalidate(ino, block)

    # -- metadata processes -------------------------------------------------------

    def _meta_mkdir(self, path):
        yield self._meta_rtt()
        if self.access == "ro":
            raise PermissionDenied("read-only mount")
        return self.fs.namespace.mkdir(
            path,
            self.sim.now,
            uid=self.identity.uid,
            gid=self.identity.gid,
            owner_dn=self.identity.dn,
        )

    def _meta_listdir(self, path):
        yield self._meta_rtt()
        return self.fs.namespace.listdir(path)

    def _meta_stat(self, path):
        yield self._meta_rtt()
        return self.fs.namespace.resolve(path)

    def _meta_unlink(self, path):
        yield self._meta_rtt()
        if self.access == "ro":
            raise PermissionDenied("read-only mount")
        inode = self.fs.namespace.resolve(path)
        if not (self.identity.is_root or inode.owner_matches(self.identity.uid, self.identity.dn)):
            raise PermissionDenied(f"{path!r}: not the owner")
        inode = self.fs.namespace.unlink(path, self.sim.now)
        if inode.nlink <= 0:
            self.fs.free_file_blocks(inode)
            self.fs.inodes.drop(inode.ino)
            self.tokens.release_all(inode.ino)
        return None

    def _meta_rename(self, old, new):
        yield self._meta_rtt()
        if self.access == "ro":
            raise PermissionDenied("read-only mount")
        self.fs.namespace.rename(old, new, self.sim.now)
        return None

    def _truncate(self, handle: FileHandle, size: int):
        inode = handle.inode
        bs = self.fs.block_size
        yield from self._token_fenced(handle, 0, max(size, inode.size) + 1, RW)
        keep_blocks = (size + bs - 1) // bs
        self.fs.free_file_blocks(inode, from_block=keep_blocks)
        # drop cache beyond the new size
        for key in list(self.pool._entries):
            if key[0] == inode.ino and key[1] >= keep_blocks:
                entry = self.pool._entries[key]
                entry.dirty = False
                self.pool.mark_clean(inode.ino, key[1])
                self.pool.invalidate(inode.ino, key[1])
        # zero the tail of a retained partial block: bytes beyond the new
        # size must read back as zeros if the file is later re-extended
        if size % bs:
            tail_block = size // bs
            keep = size % bs
            self.pool.trim_block(inode.ino, tail_block, keep)
            placed = self.fs.lookup_block(inode, tail_block)
            if placed is not None:
                for nsd_id, phys in self.fs.replica_placements(inode, tail_block):
                    self.fs.nsds[nsd_id].trim(phys, keep)
        inode.size = min(inode.size, size)
        inode.mtime = self.sim.now
        return None
