"""GPFS-style disk-lease failure detection.

Every watched node periodically renews a *disk lease* with the
filesystem manager node (a tiny control message — latency-only, so
heartbeats never perturb data-path throughput). A crashed node stops
renewing; when its lease expires the detector declares it dead: it
drives ``NsdService.mark_down`` (triggering primary→backup failover on
the next block op), releases any byte-range tokens the corpse holds, and
fires events that parked RPCs race against. When the node restarts, its
first successful renewal marks it back up.

Detection latency is therefore bounded by
``lease_duration + check_interval`` after the last renewal — exactly the
knob GPFS exposes as *leaseDuration*, and the quantity E13 reports.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.obs.registry import OBS
from repro.sim.kernel import Event, Interrupt, Process, Simulation
from repro.sim.trace import TRACE

#: Size of a lease-renewal message, bytes (one disk sector in GPFS).
LEASE_BYTES = 64.0


class DiskLeaseDetector:
    """Heartbeat + lease-expiry detector driving NSD up/down state."""

    def __init__(
        self,
        sim: Simulation,
        service,
        health,
        manager_node: str,
        nodes: Iterable[str],
        lease_duration: float = 1.5,
        renew_interval: float | None = None,
        check_interval: float | None = None,
        token_managers: Iterable = (),
    ) -> None:
        if lease_duration <= 0:
            raise ValueError(f"lease_duration must be positive, got {lease_duration}")
        self.sim = sim
        self.service = service
        self.health = health
        self.manager_node = manager_node
        self.nodes = list(dict.fromkeys(nodes))
        self.lease_duration = lease_duration
        # GPFS renews at ~2/3 of the lease; check twice per renewal period.
        self.renew_interval = (
            renew_interval if renew_interval is not None else lease_duration * (2 / 3)
        )
        self.check_interval = (
            check_interval if check_interval is not None else self.renew_interval / 2
        )
        if not 0 < self.renew_interval < self.lease_duration:
            raise ValueError(
                f"renew_interval must be in (0, lease_duration), got "
                f"{self.renew_interval}"
            )
        self.token_managers = list(token_managers)
        #: Optional repro.faults.QuorumService: while the manager node has
        #: no node quorum (minority side of a partition), declarations are
        #: suppressed — a minority must not declare the majority dead.
        self.quorum = None
        self.quorum_suppressed_checks = 0
        self._had_quorum = True
        #: Armed by the recovery manager: while the manager node itself
        #: is down, renewals land on a corpse, so expiries prove nothing
        #: about the rest of the fleet — declare only the manager (its
        #: silence is exactly the signal takeover waits on).
        self.watch_manager = False
        self.manager_suppressed_checks = 0
        self._manager_was_up = True
        self.detected_down: set[str] = set()
        self._expiry: Dict[str, float] = {}
        self._death_waiters: Dict[str, List[Event]] = {}
        self._procs: List[Process] = []
        #: (node, sim time declared dead) in declaration order.
        self.detections: List[Tuple[str, float]] = []
        #: (node, t_crash, t_detected, t_recovered) for each full cycle.
        self.recoveries: List[Tuple[str, float, float, float]] = []
        self._pending: Dict[str, Tuple[float, float]] = {}  # node -> (crash, det)
        self.renewals = 0
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Seed leases and spawn the heartbeat and monitor processes."""
        if self._started:
            raise RuntimeError("detector already started")
        self._started = True
        now = self.sim.now
        for node in self.nodes:
            self._expiry[node] = now + self.lease_duration
            self._procs.append(
                self.sim.process(self._heartbeat(node), name=f"lease-renew:{node}")
            )
        self._procs.append(self.sim.process(self._monitor(), name="lease-monitor"))

    def stop(self) -> None:
        """Tear the detector down (end-of-experiment cleanup)."""
        for proc in self._procs:
            if not proc.triggered:
                proc.interrupt("detector stopped")
        self._procs.clear()

    # -- processes -----------------------------------------------------------

    def _heartbeat(self, node: str):
        try:
            while True:
                if not self.health.is_up(node):
                    # A dead machine sends nothing; park until restart, then
                    # renew immediately so recovery latency is one message.
                    yield self.health.wait_restart(node)
                else:
                    yield self.sim.timeout(self.renew_interval)
                    if not self.health.is_up(node):
                        continue  # crashed during the renew interval
                yield self._send_renewal(node)
                if not self.health.is_up(node):
                    continue  # crashed mid-flight: renewal never reached disk
                self.renewals += 1
                self._expiry[node] = self.sim.now + self.lease_duration
                if node in self.detected_down:
                    self._mark_up(node)
        except Interrupt:
            return

    def _send_renewal(self, node: str) -> Event:
        """The renewal write (overridable in tests to drop heartbeats)."""
        return self.service.messages.send(
            node, self.manager_node, nbytes=LEASE_BYTES
        )

    def _monitor(self):
        try:
            while True:
                yield self.sim.timeout(self.check_interval)
                now = self.sim.now
                if self.watch_manager and not self.health.is_up(self.manager_node):
                    # Control-plane outage: every renewal is landing on a
                    # corpse. The only meaningful expiry is the manager's
                    # own — declaring it triggers data-path failover and
                    # wakes the recovery manager's election.
                    self.manager_suppressed_checks += 1
                    self._manager_was_up = False
                    if (
                        self.manager_node in self._expiry
                        and self.manager_node not in self.detected_down
                        and now >= self._expiry[self.manager_node]
                    ):
                        self._declare_dead(self.manager_node)
                    continue
                if self.watch_manager and not self._manager_was_up:
                    # Manager back (in-place restart, or takeover re-armed
                    # us at a successor): expiries accumulated during the
                    # outage are meaningless — grant live nodes a fresh
                    # lease, mirroring the quorum-regain path below.
                    self._manager_was_up = True
                    for node in self.nodes:
                        if self.health.is_up(node):
                            self._expiry[node] = max(
                                self._expiry[node], now + self.lease_duration
                            )
                    continue
                if self.quorum is not None and not self.quorum.has_quorum(
                    self.manager_node
                ):
                    # Quorumless: renewals from the other side are parked in
                    # the network, so expiries prove nothing. Declare no one.
                    self.quorum_suppressed_checks += 1
                    self._had_quorum = False
                    continue
                if not self._had_quorum:
                    # Quorum regained (partition healed): grant every node a
                    # fresh lease — its parked renewals are in flight, and
                    # expiries accumulated during the cut are meaningless.
                    self._had_quorum = True
                    for node in self.nodes:
                        self._expiry[node] = max(
                            self._expiry[node], now + self.lease_duration
                        )
                    continue
                for node in self.nodes:
                    if node in self.detected_down:
                        continue
                    if now >= self._expiry[node]:
                        self._declare_dead(node)
        except Interrupt:
            return

    # -- state transitions ---------------------------------------------------

    def _declare_dead(self, node: str) -> None:
        self.detected_down.add(node)
        self.service.mark_down(node)
        for tm in self.token_managers:
            tm.release_all(node)
        now = self.sim.now
        crash = self.health.crash_time(node)
        self._pending[node] = (crash if crash is not None else now, now)
        self.detections.append((node, now))
        if OBS.enabled and crash is not None:
            OBS.observe(self.sim, "faults.detection_latency", now - crash)
        if TRACE.enabled:
            TRACE.instant(
                self.sim, "lease.expired", cat="fault.detect",
                lane=f"node:{node}", node=node,
                lease=self.lease_duration,
            )
        for event in self._death_waiters.pop(node, []):
            if not event.triggered:
                event.succeed(node)

    def _mark_up(self, node: str) -> None:
        self.detected_down.discard(node)
        self.service.mark_up(node)
        crash, detected = self._pending.pop(node, (self.sim.now, self.sim.now))
        self.recoveries.append((node, crash, detected, self.sim.now))
        if OBS.enabled:
            OBS.observe(self.sim, "faults.mttr", self.sim.now - crash)
        if TRACE.enabled:
            TRACE.instant(
                self.sim, "lease.renewed", cat="fault.recover",
                lane=f"node:{node}", node=node,
            )

    def rearm(self, manager_node: str) -> None:
        """Re-point detection at a successor manager after takeover.

        Heartbeats follow ``manager_node`` on their next renewal; live
        nodes get a fresh lease (their renewals during the outage reached
        a corpse, so their expiries are meaningless); dead nodes keep
        their expired leases and are declared on the next sweep.
        """
        self.manager_node = manager_node
        self._manager_was_up = True
        now = self.sim.now
        for node in self.nodes:
            if self.health.is_up(node):
                self._expiry[node] = max(
                    self._expiry[node], now + self.lease_duration
                )

    # -- queries -------------------------------------------------------------

    def watches(self, node: str) -> bool:
        return node in self._expiry

    def is_responsive(self, node: str) -> bool:
        """Would ``node`` answer a control message right now (ground truth)?"""
        return self.health.is_up(node)

    def declared_dead(self, node: str) -> Event:
        """Event that fires when ``node`` is (or already was) declared dead."""
        event = Event(self.sim)
        if node in self.detected_down:
            event.succeed(node)
        else:
            self._death_waiters.setdefault(node, []).append(event)
        return event

    # -- metrics -------------------------------------------------------------

    def detection_latencies(self) -> List[float]:
        """Seconds from actual crash to lease-expiry declaration."""
        out = [det - crash for _, crash, det, _ in self.recoveries]
        out.extend(det - crash for crash, det in self._pending.values())
        return out

    def mttr_values(self) -> List[float]:
        """Seconds from crash to the node being marked up again."""
        return [rec - crash for _, crash, _, rec in self.recoveries]

    def metrics(self) -> Dict[str, float]:
        det = self.detection_latencies()
        mttr = self.mttr_values()
        out: Dict[str, float] = {
            "lease_duration": self.lease_duration,
            "lease_renewals": float(self.renewals),
            "failures_detected": float(len(self.detections)),
            "recoveries": float(len(self.recoveries)),
        }
        if det:
            out["detection_latency_mean"] = sum(det) / len(det)
            out["detection_latency_max"] = max(det)
        if mttr:
            out["mttr_mean"] = sum(mttr) / len(mttr)
            out["mttr_max"] = max(mttr)
        if self.quorum is not None:
            out["quorum_suppressed_checks"] = float(self.quorum_suppressed_checks)
        if self.watch_manager:
            out["manager_suppressed_checks"] = float(self.manager_suppressed_checks)
        return out
