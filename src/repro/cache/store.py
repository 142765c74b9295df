"""The gateway cluster's shared block cache.

Bookkeeping only — latency (local disk service, LAN/WAN transfers) is
charged by :class:`~repro.cache.gateway.CacheGateway`, which owns the
storage pipes. Like the client :class:`~repro.core.pagepool.PagePool`,
entries hold real bytes when the home filesystem stores data and lengths
in size-only mode; the accounting is identical either way.

Dirty entries (writeback data not yet flushed home) are pinned: eviction
only ever removes clean blocks. When every resident block is dirty the
insert raises :class:`CacheWedgedError` naming the block — the writeback
queue bound is sized against cache slots precisely so this cannot happen
in a correctly configured gateway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cache.policy import make_policy

Key = Tuple[int, int]  # (ino, logical block index)


class CacheWedgedError(MemoryError):
    """Every resident block is dirty; nothing can be evicted."""


@dataclass
class GatewayEntry:
    data: Optional[bytes]  # None in size-only mode
    length: int
    dirty: bool = False
    #: sequence number of the queued write that dirtied this entry last;
    #: a flush only cleans the entry if no later write superseded it.
    dirty_seq: int = 0


class GatewayBlockCache:
    """Bounded shared cache of home-filesystem blocks at the edge site."""

    def __init__(
        self,
        capacity_bytes: int,
        block_size: int,
        policy: str = "lru",
    ) -> None:
        if capacity_bytes < block_size:
            raise ValueError("gateway cache smaller than one block")
        self.block_size = block_size
        self.slots = int(capacity_bytes // block_size)
        self.capacity = self.slots * block_size
        self.policy = make_policy(policy, self.slots)
        self._entries: Dict[Key, GatewayEntry] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.inserts = 0
        self.invalidations = 0

    # -- lookup ---------------------------------------------------------------

    def lookup(self, ino: int, block: int) -> Optional[GatewayEntry]:
        """Policy-visible lookup: counts a hit or a miss."""
        entry = self._entries.get((ino, block))
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self.policy.on_access((ino, block))
        return entry

    def peek(self, ino: int, block: int) -> Optional[GatewayEntry]:
        """Lookup without policy or statistics side effects."""
        return self._entries.get((ino, block))

    def __contains__(self, key: Key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # -- insertion / update -----------------------------------------------------

    def insert(
        self, ino: int, block: int, data: Optional[bytes], length: int
    ) -> None:
        """Install a clean block fetched from the home cluster."""
        key = (ino, block)
        old = self._entries.get(key)
        if old is not None:
            if old.dirty:
                # A writeback landed while the fetch was in flight; the
                # dirty copy is newer than what the home cluster served.
                return
            old.data, old.length = data, length
            self.policy.on_access(key)
            return
        self._evict_for(key)
        self._entries[key] = GatewayEntry(data=data, length=length)
        self.policy.on_insert(key)
        self.inserts += 1

    def apply_write(
        self,
        ino: int,
        block: int,
        offset: int,
        data: Optional[bytes],
        length: int,
        dirty_seq: int = 0,
    ) -> GatewayEntry:
        """Merge a client write into the cache (dirty until flushed home).

        ``dirty_seq == 0`` means write-through: the entry stays clean
        because the home copy is updated before the client is acked.
        """
        if offset < 0 or offset + length > self.block_size:
            raise ValueError("write exceeds block bounds")
        key = (ino, block)
        entry = self._entries.get(key)
        if entry is None:
            self._evict_for(key)
            entry = GatewayEntry(data=None if data is None else b"", length=0)
            self._entries[key] = entry
            self.policy.on_insert(key)
            self.inserts += 1
        else:
            self.policy.on_access(key)
        if data is not None:
            old = entry.data or b""
            if len(old) < offset:
                old = old + b"\x00" * (offset - len(old))
            entry.data = old[:offset] + data + old[offset + length:]
            entry.length = len(entry.data)
        else:
            entry.length = max(entry.length, offset + length)
        if dirty_seq:
            entry.dirty = True
            entry.dirty_seq = dirty_seq
        return entry

    def mark_flushed(self, ino: int, block: int, seq: int) -> None:
        """A queued write reached the home cluster; unpin if not superseded."""
        entry = self._entries.get((ino, block))
        if entry is not None and entry.dirty and entry.dirty_seq <= seq:
            entry.dirty = False
            entry.dirty_seq = 0

    def invalidate_ino(self, ino: int) -> int:
        """Drop every clean block of ``ino`` (lease break); dirty survive."""
        victims = [
            k for k, e in self._entries.items() if k[0] == ino and not e.dirty
        ]
        for key in victims:
            del self._entries[key]
            self.policy.on_remove(key)
        self.invalidations += len(victims)
        return len(victims)

    # -- stats ------------------------------------------------------------------

    @property
    def used_blocks(self) -> int:
        return len(self._entries)

    @property
    def dirty_blocks(self) -> int:
        return sum(1 for e in self._entries.values() if e.dirty)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "evictions": float(self.evictions),
            "inserts": float(self.inserts),
            "invalidations": float(self.invalidations),
            "used_blocks": float(self.used_blocks),
            "dirty_blocks": float(self.dirty_blocks),
            "slots": float(self.slots),
            "hit_ratio": self.hit_ratio,
        }

    # -- internals ---------------------------------------------------------------

    def _evict_for(self, incoming: Key) -> None:
        if len(self._entries) < self.slots:
            return
        victim = self.policy.victim(
            lambda k: not self._entries[k].dirty
        )
        if victim is None:
            ino, block = incoming
            raise CacheWedgedError(
                f"gateway cache wedged inserting block {block} of ino {ino}: "
                f"all {len(self._entries)} resident blocks are dirty "
                "(writeback flusher cannot keep up; raise capacity or lower "
                "the dirty-queue bound)"
            )
        del self._entries[victim]
        self.policy.on_remove(victim)
        self.evictions += 1
