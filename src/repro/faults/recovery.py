"""Token-manager failover: election, takeover epoch, client-replay rebuild.

GPFS survives the loss of *any* node — including the token/metadata
manager, whose in-memory state dies with it. The documented recovery is
not a replicated log: the new manager **asks the survivors**. Every
client already knows exactly which byte-range tokens it holds, so the
successor rebuilds the token table by having each registered client
replay its held ranges, then resumes granting. This module reproduces
that protocol on top of the fault subsystem:

1. **Detection** — the manager node stops renewing its own disk lease;
   the :class:`~repro.faults.detector.DiskLeaseDetector` (armed with
   ``watch_manager``) declares it dead while suppressing declarations of
   everyone else (their renewals were landing on a corpse, so their
   expiries prove nothing).
2. **Election** — deterministic: the lowest-id live NSD server node that
   holds node quorum becomes the successor. No votes, no randomness —
   every survivor computes the same answer from the same membership
   list, which is how GPFS picks configuration managers too. If no
   candidate qualifies (minority side of a partition), the election
   retries every ``election_sweep`` seconds.
3. **Takeover epoch** — ``TokenManager.begin_takeover`` freezes the
   table: new grant RPCs park at the manager fence, in-flight acquires
   abort with :class:`~repro.core.tokens.ManagerMovedError` at their
   next fence, and shrinks no-op.
4. **Client replay** — the successor round-trips an announcement to
   every live registered client; each reply carries the client's held
   token ranges (its mirror). The union rebuilds ``_held`` exactly, and
   is verified against a ghost snapshot taken at takeover start: rebuilt
   state must equal the ghost minus tokens held by nodes that cannot
   reply. Any difference increments ``rebuild_mismatches`` (0 in every
   healthy run — the property suite pins this).
5. **Re-arm** — the lease detector re-points at the successor and grants
   live nodes fresh leases; ``Filesystem.move_manager`` re-targets
   metadata RPCs and the gateway lease server; leases are conservatively
   invalidated for every inode with a surviving ``rw`` token or written
   during the outage window; finally ``complete_takeover`` bumps the
   epoch and releases parked grants, which redirect to the new node.

Takeover latency (detection → grants flowing again) is bounded by the
election sweep plus the replay fan-out RTT; add the lease duration and
you have the full client-visible outage — the bound E16 asserts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.tokens import RW, HeldToken
from repro.obs.registry import OBS
from repro.sim.kernel import Interrupt, Process, Simulation
from repro.sim.trace import TRACE

#: Announcement request / replay reply sizes, bytes. The reply carries
#: the client's held-range list — small (ranges, not data) but bigger
#: than a bare ack.
ANNOUNCE_BYTES = 128.0
REPLAY_BYTES = 512.0


def _token_key(token: HeldToken) -> Tuple[str, str, int, int]:
    return (token.holder, token.mode, token.start, token.end)


def _table_keys(held: Dict[int, List[HeldToken]]) -> Dict[int, set]:
    return {ino: {_token_key(t) for t in toks} for ino, toks in held.items() if toks}


class RecoveryManager:
    """Watches the token manager's node and runs takeover when it dies."""

    def __init__(
        self,
        sim: Simulation,
        fs,
        detector,
        health,
        quorum,
        election_sweep: float = 0.25,
    ) -> None:
        if election_sweep <= 0:
            raise ValueError(
                f"election_sweep must be positive, got {election_sweep}"
            )
        self.sim = sim
        self.fs = fs
        self.tm = fs.token_manager
        self.detector = detector
        self.health = health
        self.quorum = quorum
        self.election_sweep = election_sweep
        #: (old node, new node, t_detect, t_complete) per takeover.
        self.takeovers: List[Tuple[str, str, float, float]] = []
        self.elections = 0
        self.election_retries = 0
        self.rebuild_mismatches = 0
        self.rebuilt_tokens = 0
        self.replayed_clients = 0
        self.lease_invalidated_inos = 0
        self._proc: Optional[Process] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "RecoveryManager":
        if self._proc is not None:
            raise RuntimeError("recovery manager already started")
        self._proc = self.sim.process(self._run(), name="recovery-manager")
        return self

    def stop(self) -> None:
        if self._proc is not None and not self._proc.triggered:
            self._proc.interrupt("recovery manager stopped")

    # -- the watch/takeover loop ---------------------------------------------

    def _run(self):
        try:
            while True:
                manager = self.tm.node
                yield self.detector.declared_dead(manager)
                if self.health.is_up(manager):
                    # Stale declaration (node already restarted between
                    # the declaration and this wakeup): nothing to do.
                    yield self.sim.timeout(self.election_sweep)
                    continue
                yield from self._take_over(manager)
        except Interrupt:
            return

    def _elect(self, dead: str):
        """Deterministic election: lowest-id live quorum-holding member."""
        while True:
            self.elections += 1
            for candidate in sorted(self.quorum.member_nodes()):
                if candidate == dead:
                    continue
                if self.health.is_up(candidate) and self.quorum.has_quorum(
                    candidate
                ):
                    return candidate
            # No live majority-side candidate right now (e.g. the other
            # servers sit on the minority side of a partition): sweep
            # again — takeover waits, it never gives up.
            self.election_retries += 1
            yield self.sim.timeout(self.election_sweep)

    def _take_over(self, dead: str):
        t_detect = self.sim.now
        t_crash = self.health.crash_time(dead)
        t_crash = t_detect if t_crash is None else t_crash
        successor = yield from self._elect(dead)
        if TRACE.enabled:
            TRACE.instant(
                self.sim, "tokens.takeover.begin", cat="fault.control",
                lane="faults", dead=dead, successor=successor,
            )
        tm = self.tm
        tm.begin_takeover()
        # Ghost snapshot: the table as the cluster last agreed on it.
        # The replay rebuild must reproduce it minus the tokens of nodes
        # that cannot answer — anything else is a recovery bug.
        ghost = {ino: list(toks) for ino, toks in tm._held.items() if toks}
        # Announcement fan-out: successor → every live registered client,
        # each reply carrying that client's held ranges. This (plus the
        # election sweep) is the takeover-latency budget.
        clients = [
            c for c in sorted(tm.registered_clients()) if self.health.is_up(c)
        ]
        rtts = [
            self.fs.messages.round_trip(
                successor, client,
                request_bytes=ANNOUNCE_BYTES, reply_bytes=REPLAY_BYTES,
            )
            for client in clients
        ]
        if rtts:
            yield self.sim.all_of(rtts)
        self.replayed_clients += len(clients)
        rebuilt = tm.rebuild_from_replay(clients)
        self.rebuilt_tokens += sum(len(toks) for toks in rebuilt.values())
        self._verify_rebuild(ghost, rebuilt)
        # Control-plane relocation: metadata RPCs, the control-outage
        # marker set, and the gateway lease server follow the manager.
        self.fs.move_manager(successor)
        self.detector.rearm(successor)
        self._invalidate_leases(rebuilt, t_crash)
        tm.complete_takeover(successor)
        t_done = self.sim.now
        self.takeovers.append((dead, successor, t_detect, t_done))
        if OBS.enabled:
            OBS.observe(self.sim, "tokens.takeover_latency", t_done - t_detect)
            OBS.observe(self.sim, "tokens.takeover_mttr", t_done - t_crash)
        if TRACE.enabled:
            TRACE.instant(
                self.sim, "tokens.takeover.complete", cat="fault.control",
                lane="faults", dead=dead, successor=successor,
                latency=t_done - t_detect,
            )

    # -- verification & lease hygiene ----------------------------------------

    def _verify_rebuild(
        self,
        ghost: Dict[int, List[HeldToken]],
        rebuilt: Dict[int, List[HeldToken]],
    ) -> None:
        """Rebuilt table == ghost minus unreachable holders, conflict-free."""
        expected = {
            ino: [t for t in toks if self.health.is_up(t.holder)]
            for ino, toks in ghost.items()
        }
        if _table_keys(expected) != _table_keys(rebuilt):
            self.rebuild_mismatches += 1
        for toks in rebuilt.values():
            for i, a in enumerate(toks):
                for b in toks[i + 1:]:
                    if a.conflicts_with(b.holder, b.mode, b.start, b.end):
                        self.rebuild_mismatches += 1

    def _invalidate_leases(
        self, rebuilt: Dict[int, List[HeldToken]], t_crash: float
    ) -> None:
        """Replay ``on_grant`` registrations into the gateway lease layer.

        Conservative rule: any inode a survivor still holds ``rw`` on, or
        whose mtime falls inside the outage window, may have changed
        without the (dead) lease server pushing an invalidation — bump
        its version and break live edge leases.
        """
        lease_server = getattr(self.fs, "_gateway_lease_server", None)
        if lease_server is None:
            return
        inos = {
            ino
            for ino, toks in rebuilt.items()
            if any(t.mode == RW for t in toks)
        }
        for ino, inode in self.fs.inodes._inodes.items():
            if inode.mtime >= t_crash:
                inos.add(ino)
        if inos:
            self.lease_invalidated_inos += len(inos)
            lease_server.replay_after_takeover(inos)

    # -- metrics -------------------------------------------------------------

    def takeover_latencies(self) -> List[float]:
        return [done - detect for _, _, detect, done in self.takeovers]

    def metrics(self) -> Dict[str, float]:
        lat = self.takeover_latencies()
        out: Dict[str, float] = {
            "manager_takeovers": float(len(self.takeovers)),
            "manager_elections": float(self.elections),
            "election_retries": float(self.election_retries),
            "rebuild_mismatches": float(self.rebuild_mismatches),
            "rebuilt_tokens": float(self.rebuilt_tokens),
            "replayed_clients": float(self.replayed_clients),
            "lease_invalidated_inos": float(self.lease_invalidated_inos),
            "manager_redirects": float(self.tm.redirects),
        }
        if lat:
            out["takeover_latency_mean"] = sum(lat) / len(lat)
            out["takeover_latency_max"] = max(lat)
        return out
