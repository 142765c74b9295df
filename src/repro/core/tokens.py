"""Distributed byte-range lock tokens.

GPFS serializes conflicting file access with *tokens* handed out by a token
manager node; a client keeps a token until a conflicting request forces a
revoke, at which point the holder flushes affected dirty data and releases.
Because tokens are cached, steady-state streaming pays no per-IO lock
traffic — only the first touch and true sharing pay WAN round trips, which
is why GPFS's locking survived the TeraGrid latencies (§3).

Modes: ``"ro"`` (shared) and ``"rw"`` (exclusive). Ranges are half-open
byte intervals ``[start, end)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.net.message import MessageService
from repro.sim.kernel import Event, Simulation
from repro.sim.resources import Resource

RO = "ro"
RW = "rw"


class ManagerMovedError(RuntimeError):
    """A token RPC was parked at a crashed manager whose role has since
    moved to a successor node: the caller must re-issue the request,
    which will target the new ``TokenManager.node``."""


def _check_mode(mode: str) -> None:
    if mode not in (RO, RW):
        raise ValueError(f"mode must be 'ro' or 'rw', got {mode!r}")


def _check_range(start: int, end: int) -> None:
    if start < 0 or end <= start:
        raise ValueError(f"invalid byte range [{start}, {end})")


@dataclass
class HeldToken:
    holder: str  # client node name
    mode: str
    start: int
    end: int

    def overlaps(self, start: int, end: int) -> bool:
        return self.start < end and start < self.end

    def conflicts_with(self, other_holder: str, mode: str, start: int, end: int) -> bool:
        if self.holder == other_holder:
            return False
        if not self.overlaps(start, end):
            return False
        return self.mode == RW or mode == RW


def merge_ranges(ranges: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Union of half-open intervals, sorted and coalesced."""
    if not ranges:
        return []
    ordered = sorted(ranges)
    out = [ordered[0]]
    for start, end in ordered[1:]:
        last_start, last_end = out[-1]
        if start <= last_end:
            out[-1] = (last_start, max(last_end, end))
        else:
            out.append((start, end))
    return out


def covers(ranges: List[Tuple[int, int]], start: int, end: int) -> bool:
    """True when the union of ``ranges`` contains ``[start, end)``."""
    pos = start
    for r_start, r_end in merge_ranges(ranges):
        if r_start > pos:
            return False
        if r_end >= end:
            return True
        if r_end > pos:
            pos = r_end
    return pos >= end


#: Revoke handler: generator process run on the client when it must give up
#: ``[start, end)`` of ``ino``; must flush dirty data before returning.
RevokeHandler = Callable[[int, int, int], Generator[Event, None, None]]


class TokenManager:
    """The token server for one filesystem, living on ``node``."""

    def __init__(self, sim: Simulation, messages: MessageService, node: str) -> None:
        self.sim = sim
        self.messages = messages
        self.node = node
        self._held: Dict[int, List[HeldToken]] = {}
        self._handlers: Dict[str, RevokeHandler] = {}
        self._ino_locks: Dict[int, Resource] = {}
        self.grants = 0
        self.revokes = 0
        #: Optional repro.faults.DiskLeaseDetector: when the holder of a
        #: conflicting token is dead, revocation waits for its lease to
        #: expire instead of messaging a corpse forever.
        self.failure_detector = None
        self.dead_holder_releases = 0
        #: Optional repro.faults.QuorumService: a manager node cut off
        #: from the majority of NSD server nodes parks every grant until
        #: the partition heals — the split-brain gate.
        self.quorum = None
        self.quorum_parked_grants = 0
        #: Optional grant observer ``fn(client, ino, mode, start, end)``,
        #: called synchronously after each grant lands (still inside the
        #: per-ino lock, revocations already complete). The caching
        #: gateway's lease server hooks this to version inodes; ``None``
        #: keeps the grant path byte-for-byte the pre-hook code.
        self.on_grant = None
        #: Optional repro.faults.NodeHealth: when set (manager failover
        #: armed), grants park while the manager node is down and abort
        #: with :class:`ManagerMovedError` once the role moves. ``None``
        #: keeps the grant path byte-for-byte the pre-failover code.
        self.health = None
        #: Takeover epoch: bumped by :meth:`complete_takeover`. An acquire
        #: that observes an epoch change mid-protocol raises
        #: :class:`ManagerMovedError` so the client re-targets the RPC.
        self.epoch = 0
        self.in_takeover = False
        self._takeover_waiters: List[Event] = []
        #: Per-holder mirror of granted tokens — the client-side state a
        #: survivor replays to a new manager at takeover. Updated at the
        #: same commit points as ``_held`` so mirror == manager state
        #: restricted to the holder, under every interleaving.
        self._mirrors: Dict[str, Dict[int, List[HeldToken]]] = {}
        self.manager_moves = 0
        self.redirects = 0
        #: Revokes abandoned because the holder died mid-flush (the
        #: crash-time lock sweep: without it the per-ino lock leaks).
        self.revokes_abandoned_dead = 0

    def register_client(self, node: str, handler: RevokeHandler) -> None:
        self._handlers[node] = handler

    def registered_clients(self) -> List[str]:
        return list(self._handlers)

    def _lock_for(self, ino: int) -> Resource:
        lock = self._ino_locks.get(ino)
        if lock is None:
            lock = Resource(self.sim, capacity=1, name=f"tm-ino{ino}")
            self._ino_locks[ino] = lock
        return lock

    def holders(self, ino: int) -> List[HeldToken]:
        return list(self._held.get(ino, []))

    def client_ranges(self, ino: int, holder: str, mode: Optional[str] = None) -> List[Tuple[int, int]]:
        """Ranges ``holder`` currently holds on ``ino`` (optionally by mode).

        A ``rw`` token also satisfies ``ro`` coverage.
        """
        out = []
        for tok in self._held.get(ino, []):
            if tok.holder != holder:
                continue
            if mode == RW and tok.mode != RW:
                continue
            out.append((tok.start, tok.end))
        return out

    def acquire(
        self,
        client: str,
        ino: int,
        start: int,
        end: int,
        mode: str,
        desired: Optional[Tuple[int, int]] = None,
    ) -> Event:
        """Grant at least ``[start, end)`` in ``mode`` to ``client``.

        ``desired`` is the GPFS "desired range": when nothing conflicts with
        it, the manager grants the whole desired range so a streaming client
        pays one token round trip instead of one per IO. When something does
        conflict with the desired range, only the required range is granted
        (revoking exactly the holders that block it).
        """
        _check_mode(mode)
        _check_range(start, end)
        if desired is not None:
            dstart, dend = desired
            if not (dstart <= start and end <= dend):
                raise ValueError("desired range must contain the required range")
        if client not in self._handlers:
            raise KeyError(f"client {client!r} never registered with the token manager")
        return self.sim.process(
            self._acquire(client, ino, start, end, mode, desired), name="token-acquire"
        )

    def _manager_fence(self, epoch0: int):
        """Park while the manager node is down or a takeover is running.

        Resumes silently when the manager restarts in place; raises
        :class:`ManagerMovedError` when the epoch advanced (a successor
        took over), so the caller re-issues the RPC at the new node.
        Callers gate the ``yield from`` on ``health is not None`` — with
        failover unarmed the grant path stays event-for-event identical.
        """
        while True:
            if self.epoch != epoch0:
                raise ManagerMovedError(
                    f"token manager moved to {self.node!r} (epoch {self.epoch})"
                )
            health = self.health
            if health is None or (not self.in_takeover and health.is_up(self.node)):
                return
            yield self.sim.any_of(
                [self._takeover_event(), health.wait_restart(self.node)]
            )

    def _takeover_event(self) -> Event:
        """Event firing at the next :meth:`complete_takeover`."""
        event = Event(self.sim)
        self._takeover_waiters.append(event)
        return event

    def _acquire(self, client, ino, start, end, mode, desired):
        epoch0 = self.epoch
        if self.health is not None:
            yield from self._manager_fence(epoch0)
        # request message to the manager node
        yield self.messages.send(client, self.node, nbytes=256)
        # Quorum gate: a minority-side manager must not hand out tokens
        # the majority side could also grant. Park (don't fail) — after
        # heal the grant proceeds with whatever state survived.
        while self.quorum is not None and not self.quorum.has_quorum(self.node):
            self.quorum_parked_grants += 1
            yield self.quorum.partition.wait_heal()
        with self._lock_for(ino).request() as req:
            yield req
            if self.health is not None:
                # The manager may have died while we queued on the lock.
                yield from self._manager_fence(epoch0)
            holders = self._held.setdefault(ino, [])
            grant_start, grant_end = start, end
            if desired is not None:
                dstart, dend = desired
                if not any(
                    t.conflicts_with(client, mode, dstart, dend) for t in holders
                ):
                    grant_start, grant_end = dstart, dend
            conflicting = [
                t
                for t in holders
                if t.conflicts_with(client, mode, grant_start, grant_end)
            ]
            # Revoke conflict holders in parallel.
            revocations = [
                self.sim.process(
                    self._revoke(ino, tok, grant_start, grant_end),
                    name="token-revoke",
                )
                for tok in conflicting
            ]
            if revocations:
                yield self.sim.all_of(revocations)
                if self.health is not None:
                    # ... or while the revocations ran. Never commit a
                    # grant into a table a successor has since rebuilt.
                    yield from self._manager_fence(epoch0)
            token = HeldToken(
                holder=client, mode=mode, start=grant_start, end=grant_end
            )
            holders.append(token)
            self._mirrors.setdefault(client, {}).setdefault(ino, []).append(token)
            self.grants += 1
            if self.on_grant is not None:
                self.on_grant(client, ino, mode, grant_start, grant_end)
        # grant reply back to the client
        yield self.messages.send(self.node, client, nbytes=256)
        return True

    def _revoke(self, ino: int, token: HeldToken, start: int, end: int):
        """Take ``[start, end)`` back from ``token``'s holder."""
        self.revokes += 1
        # A dead holder can neither flush nor release: wait for the lease
        # detector to declare it (which bounds the stall at the lease
        # duration, exactly as in GPFS), then reclaim its tokens outright.
        det = self.failure_detector
        if (
            det is not None
            and det.watches(token.holder)
            and not det.is_responsive(token.holder)
        ):
            yield det.declared_dead(token.holder)
            self.dead_holder_releases += 1
            self._shrink(ino, token, start, end)
            return
        # revoke message manager → holder
        yield self.messages.send(self.node, token.holder, nbytes=256)
        handler = self._handlers.get(token.holder)
        if handler is not None:
            lo, hi = max(start, token.start), min(end, token.end)
            flush = self.sim.process(handler(ino, lo, hi), name="revoke-flush")
            if det is not None and det.watches(token.holder):
                # Crash-time lock sweep: the holder can die *after* the
                # entry check above, wedging its flush forever (parked
                # RPCs to a dead server, a severed partition) while the
                # caller holds the per-ino lock. Race the flush against
                # the holder's death declaration and reclaim outright if
                # the corpse wins — the lock drains instead of leaking.
                yield self.sim.any_of([flush, det.declared_dead(token.holder)])
                if not flush.triggered:
                    self.revokes_abandoned_dead += 1
                    self.dead_holder_releases += 1
                    self._shrink(ino, token, start, end)
                    return
            else:
                yield flush
        # release message holder → manager
        yield self.messages.send(token.holder, self.node, nbytes=256)
        self._shrink(ino, token, start, end)

    def _shrink(self, ino: int, token: HeldToken, start: int, end: int) -> None:
        """Remove ``[start, end)`` from ``token``, splitting if needed."""
        if self.in_takeover:
            # State is frozen between the ghost snapshot and the replay
            # rebuild; the acquire driving this shrink will observe the
            # epoch change and re-issue against the rebuilt table.
            return
        holders = self._held.get(ino, [])
        if token not in holders:
            return
        holders.remove(token)
        pieces = []
        if token.start < start:
            pieces.append(HeldToken(token.holder, token.mode, token.start, start))
        if end < token.end:
            pieces.append(HeldToken(token.holder, token.mode, end, token.end))
        holders.extend(pieces)
        mirrored = self._mirrors.get(token.holder, {}).get(ino)
        if mirrored is not None and token in mirrored:
            mirrored.remove(token)
            mirrored.extend(pieces)

    def release_all(self, client: str, ino: Optional[int] = None) -> None:
        """Drop every token ``client`` holds (on one ino, or everywhere)."""
        inos = [ino] if ino is not None else list(self._held)
        mirror = self._mirrors.get(client)
        for i in inos:
            self._held[i] = [t for t in self._held.get(i, []) if t.holder != client]
            if mirror is not None:
                mirror.pop(i, None)

    # -- manager failover ------------------------------------------------------

    def begin_takeover(self) -> None:
        """Freeze the token table while a successor rebuilds it: new
        grants park at the fence, shrinks no-op, and every in-flight
        acquire aborts at the next fence once the epoch advances."""
        if self.in_takeover:
            raise RuntimeError("takeover already in progress")
        self.in_takeover = True

    def rebuild_from_replay(self, live_clients: List[str]) -> Dict[int, List[HeldToken]]:
        """Reconstruct ``_held`` from surviving clients' replayed state.

        Each live client reports the token ranges it believes it holds
        (its mirror); the union — deterministically ordered — becomes the
        new table. Tokens of clients that cannot reply are dropped.
        """
        if not self.in_takeover:
            raise RuntimeError("rebuild outside a takeover")
        held: Dict[int, List[HeldToken]] = {}
        for client in sorted(live_clients):
            for ino in sorted(self._mirrors.get(client, {})):
                tokens = self._mirrors[client][ino]
                if tokens:
                    held.setdefault(ino, []).extend(tokens)
        self._held = held
        return held

    def complete_takeover(self, node: str) -> None:
        """Move the manager role to ``node`` and release parked work."""
        if not self.in_takeover:
            raise RuntimeError("no takeover in progress")
        self.node = node
        self.in_takeover = False
        self.epoch += 1
        self.manager_moves += 1
        waiters, self._takeover_waiters = self._takeover_waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed(node)


class TokenClient:
    """Client-side token cache for one mount."""

    #: Redirect attempts before giving up; each retry needs a fresh
    #: takeover epoch, so this bounds pathological churn, not latency.
    MAX_REDIRECTS = 8

    def __init__(self, manager: TokenManager, node: str, handler: RevokeHandler) -> None:
        self.manager = manager
        self.node = node
        manager.register_client(node, self._on_revoke)
        self._user_handler = handler
        self.acquisitions = 0
        self.cache_hits = 0
        self.redirects = 0

    def _on_revoke(self, ino: int, start: int, end: int):
        yield from self._user_handler(ino, start, end)

    def has(self, ino: int, start: int, end: int, mode: str) -> bool:
        # any token (ro or rw) covers reads
        held = self.manager.client_ranges(
            ino, self.node, mode=RW if mode == RW else None
        )
        return covers(held, start, end)

    def ensure(
        self,
        ino: int,
        start: int,
        end: int,
        mode: str,
        desired: Optional[Tuple[int, int]] = None,
    ) -> Event:
        """Acquire only if not already covered (token caching)."""
        _check_mode(mode)
        _check_range(start, end)
        if self.has(ino, start, end, mode):
            self.cache_hits += 1
            evt = self.manager.sim.event(name="token-cached")
            evt.succeed(True)
            return evt
        self.acquisitions += 1
        if self.manager.health is None:
            # Failover unarmed: the direct path, zero added event hops.
            return self.manager.acquire(
                self.node, ino, start, end, mode, desired=desired
            )
        return self.manager.sim.process(
            self._acquire_redirect(ino, start, end, mode, desired),
            name="token-ensure",
        )

    def _acquire_redirect(self, ino, start, end, mode, desired):
        """Retry-aware acquire: a grant RPC parked at a crashed manager
        fails with :class:`ManagerMovedError` at takeover; re-issuing it
        targets the successor (``manager.node`` is read per attempt)."""
        for _ in range(self.MAX_REDIRECTS):
            try:
                result = yield self.manager.acquire(
                    self.node, ino, start, end, mode, desired=desired
                )
            except ManagerMovedError:
                self.redirects += 1
                self.manager.redirects += 1
                continue
            return result
        raise ManagerMovedError(
            f"token acquire from {self.node!r} redirected "
            f"{self.MAX_REDIRECTS} times without landing"
        )

    def release_all(self, ino: Optional[int] = None) -> None:
        self.manager.release_all(self.node, ino)
