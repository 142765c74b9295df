"""One-call wiring of the fault subsystem onto a built filesystem.

:class:`FaultHarness` composes the three pieces — ground-truth
:class:`NodeHealth`, the :class:`DiskLeaseDetector`, and a
:class:`FaultInjector` replaying a :class:`FaultSchedule` — and attaches
them to an ``NsdService`` (plus optional client retry policy and token
managers). Experiments use :func:`attach_faults` so a chaos run differs
from a nominal run by exactly one call::

    harness = attach_faults(
        sim, service, engine=engine, network=net, manager_node="nsd00",
        schedule=FaultSchedule().crash_node(2.0, "nsd01"),
        retry=RetryPolicy(), retry_rng_streams=rngs,
    )
    ...
    harness.stop()
    result.metrics.update(harness.metrics())

With an **empty** schedule the harness is inert on the data path: lease
heartbeats ride the latency-only message service and the retry wrapper
adds only zero-delay event hops, so nominal metrics are unchanged — the
invariance E13's acceptance criteria (and a test) pin down.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.faults.detector import DiskLeaseDetector
from repro.faults.health import NodeHealth
from repro.faults.injector import FaultInjector
from repro.faults.partition import PartitionState
from repro.faults.quorum import QuorumService
from repro.faults.recovery import RecoveryManager
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule
from repro.sim.kernel import Event, Simulation


class FaultHarness:
    """Health + lease detector + injector, wired and started together."""

    def __init__(
        self,
        sim: Simulation,
        service,
        manager_node: str,
        schedule: Optional[FaultSchedule] = None,
        engine=None,
        network=None,
        lease_duration: float = 1.5,
        renew_interval: Optional[float] = None,
        check_interval: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        retry_rng_streams=None,
        token_managers: Iterable = (),
        arrays: Dict[str, object] | None = None,
        watch_nodes: Iterable[str] = (),
        gateways: Iterable = (),
        filesystem=None,
        recovery: Optional[bool] = None,
        election_sweep: float = 0.25,
    ) -> None:
        self.sim = sim
        self.service = service
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.health = NodeHealth(sim)
        nodes = list(
            dict.fromkeys(
                [srv.node for srv in service.servers.values()]
                + [b.node for bl in service.backup_servers.values() for b in bl]
                + list(watch_nodes)
            )
        )
        self.detector = DiskLeaseDetector(
            sim,
            service,
            self.health,
            manager_node,
            nodes,
            lease_duration=lease_duration,
            renew_interval=renew_interval,
            check_interval=check_interval,
            token_managers=token_managers,
        )
        # Partition support is created only when the schedule asks for it,
        # so nominal and non-partition chaos runs carry zero extra state.
        self.partition: Optional[PartitionState] = None
        self.quorum: Optional[QuorumService] = None
        if any(a.kind in ("partition", "partition_heal") for a in self.schedule):
            self.partition = PartitionState(sim)
            self.quorum = QuorumService(service, self.partition)
        self.injector = FaultInjector(
            sim,
            self.schedule,
            health=self.health,
            network=network,
            engine=engine,
            arrays=arrays,
            nsds={nsd.name: nsd for nsd in service.nsds.values()},
            partition=self.partition,
        )
        self.retry = retry
        self._retry_rng_streams = retry_rng_streams
        self.token_managers = list(token_managers)
        # Manager failover arms automatically when the schedule kills a
        # manager (or explicitly via recovery=True); unarmed runs carry
        # zero recovery state, so existing metrics stay bit-identical.
        wants_recovery = (
            recovery
            if recovery is not None
            else any(a.kind == "crash_manager" for a in self.schedule)
        )
        self.recovery: Optional[RecoveryManager] = None
        if wants_recovery:
            if filesystem is None:
                raise ValueError(
                    "manager failover (crash_manager / recovery=True) needs "
                    "the filesystem= argument"
                )
            quorum = self.quorum
            if quorum is None:
                quorum = QuorumService(service, self.partition)
            self.recovery = RecoveryManager(
                sim,
                filesystem,
                self.detector,
                self.health,
                quorum,
                election_sweep=election_sweep,
            )
            if filesystem.token_manager not in self.token_managers:
                self.token_managers.append(filesystem.token_manager)
        #: Caching gateways (repro.cache.CacheGateway) riding this
        #: filesystem: a partition schedule wires them for heal-replay.
        self.gateways = list(gateways)
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "FaultHarness":
        if self._started:
            raise RuntimeError("harness already started")
        self._started = True
        self.service.attach_health(self.health)
        if self.retry is not None:
            self.service.attach_retry(
                self.retry, rng_streams=self._retry_rng_streams
            )
        if self.partition is not None:
            self.service.attach_partition(self.partition)
            self.service.messages.attach_partition(self.partition)
            self.detector.quorum = self.quorum
            for gw in self.gateways:
                gw.attach_partition(self.partition)
        for tm in self.token_managers:
            tm.failure_detector = self.detector
            if self.quorum is not None:
                tm.quorum = self.quorum
        if self.recovery is not None:
            self.recovery.tm.health = self.health
            self.detector.watch_manager = True
            self.recovery.start()
        self.detector.start()
        self.injector.start()
        from repro.obs.registry import OBS

        if OBS.enabled:
            from repro.obs.wire import attach_detector

            attach_detector(self.detector)
        return self

    def stop(self) -> None:
        """Tear down the background processes (end of measurement)."""
        self.detector.stop()
        self.injector.stop()
        if self.recovery is not None:
            self.recovery.stop()

    # -- conveniences --------------------------------------------------------

    def declared_dead(self, node: str) -> Event:
        return self.detector.declared_dead(node)

    @property
    def schedule_done(self) -> bool:
        return self.injector.done

    def metrics(self) -> Dict[str, float]:
        out = self.detector.metrics()
        out["failovers"] = float(self.service.failovers)
        out["rpc_retries"] = float(getattr(self.service, "retries", 0))
        out["rpc_timeouts"] = float(getattr(self.service, "rpc_timeouts", 0))
        out["faults_injected"] = float(len(self.injector.log))
        dead_releases = sum(
            getattr(tm, "dead_holder_releases", 0) for tm in self.token_managers
        )
        if self.token_managers:
            out["dead_holder_releases"] = float(dead_releases)
        # Partition/quorum metrics appear only when the schedule used a
        # partition — existing chaos runs (E13) keep an identical key set.
        if self.partition is not None:
            out["partitions"] = float(self.partition.partitions)
            out["partition_heals"] = float(self.partition.heals)
            out["partition_parked_rpcs"] = float(self.service.partition_parked)
            out["partition_parked_msgs"] = float(
                self.service.messages.partition_parked
            )
            out.update(self.quorum.metrics())
            out["quorum_parked_grants"] = float(
                sum(getattr(tm, "quorum_parked_grants", 0) for tm in self.token_managers)
            )
        # Recovery metrics only when manager failover is armed, so every
        # pre-existing chaos run keeps an identical key set.
        if self.recovery is not None:
            out.update(self.recovery.metrics())
            out["manager_downs"] = float(self.service.manager_downs)
        # Gateway replay/conflict metrics only when gateways ride along,
        # so gateway-free chaos runs keep an identical key set.
        if self.gateways:
            out["gateway_write_acks"] = float(
                sum(gw.write_acks for gw in self.gateways)
            )
            out["gateway_writes_flushed"] = float(
                sum(gw.writes_flushed for gw in self.gateways)
            )
            out["gateway_conflicts"] = float(
                sum(gw.conflicts for gw in self.gateways)
            )
            out["gateway_stale_hits"] = float(
                sum(gw.stale_hits for gw in self.gateways)
            )
        return out


def attach_faults(
    sim: Simulation, service, manager_node: str, **kwargs
) -> FaultHarness:
    """Build and start a :class:`FaultHarness` in one call."""
    return FaultHarness(sim, service, manager_node, **kwargs).start()
