"""Attach subsystems to the global metrics registry.

Each ``attach_*`` function registers scrape-time callbacks over counters
the subsystem already maintains — attaching changes nothing about how
the simulation runs, it only makes existing state scrapeable. Each
counter is kept once, as an attribute of the object doing the work, and
read only here. Call sites (``FlowEngine.__init__``, ``mmcrfs``,
Scrubber/HsmManager constructors) guard with ``OBS.enabled`` so a
disabled registry costs one attribute check. ``Gfs.__init__`` only
starts the universe's scrape collector.

Naming conventions (the families ``repro health`` rolls up live in
:mod:`repro.obs.health`):

* ``kernel.*{sim=<pid>}`` — scheduled events (``Simulation._seq``) and
  heap depth;
* ``flow.*`` / ``fairshare.*`` — recomputes, active rows, completed
  flows, solves;
* ``net.link.utilization{link=...}`` — per-link used fraction;
* ``nsd.*{fs=...}`` — service counters; RPC latency histograms are
  recorded inline by the service (``nsd.rpc.latency{op=...}``);
* ``scrub.*{fs=...}`` / ``tokens.*{fs=...}`` / ``hsm.*{fs=...}``;
* ``client.pagepool.*{client=...}`` / ``cache.*{gw=...}`` /
  ``gateway.*{gw=...}``;
* ``faults.*{sim=<pid>}`` — detections, recoveries (latency histograms
  inline).

Every per-object family also carries the ``sim=<pid>`` label of the
universe it lives in, so two universes in one process (a sweep that
builds one scenario per point) may reuse filesystem, client and gateway
names without colliding in the registry.
"""

from __future__ import annotations

from repro.obs.metrics import canonical_key
from repro.obs.registry import OBS, _pid


def attach_engine(engine) -> None:
    """Wire a :class:`~repro.net.flow.FlowEngine` and its simulation's kernel.

    Every engine attaches, the bare ones a sweep builds per cell included,
    so the kernel, flow and fair-share families cover every universe.
    """
    sim = engine.sim
    pid = str(_pid(sim))

    def kernel_multi() -> dict:
        return {
            "counters": {
                canonical_key("kernel.events", {"sim": pid}):
                    float(sim._seq),
            },
            "gauges": {
                canonical_key("kernel.queue_depth", {"sim": pid}):
                    float(len(sim._heap) + len(sim._fifo)),
            },
        }

    def engine_multi() -> dict:
        state = engine._state
        sim_l = {"sim": pid}
        counters = {
            canonical_key("flow.bytes_moved", sim_l): engine.bytes_moved,
            canonical_key("flow.completed", sim_l):
                float(engine.completed_flows),
            canonical_key("flow.recomputes", sim_l):
                float(engine.recomputes),
            canonical_key("flow.active_rows", sim_l):
                float(engine.active_rows),
            canonical_key("flow.rate_changes", sim_l):
                float(engine.rate_changes),
            canonical_key("fairshare.solves", sim_l): float(state.solves),
            canonical_key("fairshare.solved_rows", sim_l):
                float(state.solved_rows),
            canonical_key("fairshare.single_flow_solves", sim_l):
                float(state.single_flow_solves),
            canonical_key("flowengine.class_joins", sim_l):
                float(engine.class_joins),
            canonical_key("fairshare.weight_changes", sim_l):
                float(state.weight_changes),
        }
        ncols, nmembers = state.class_stats()
        gauges = {
            canonical_key("flow.active", sim_l): float(engine.active_count),
            canonical_key("flowengine.classes", sim_l):
                float(engine.class_count()),
            canonical_key("fairshare.class_cols", sim_l): float(ncols),
            canonical_key("flowengine.aggregation_ratio", sim_l):
                (nmembers / ncols) if ncols else 1.0,
        }
        for link, frac in engine.link_utilization().items():
            gauges[
                canonical_key("net.link.utilization", {"link": link, "sim": pid})
            ] = frac
        return {"counters": counters, "gauges": gauges}

    OBS.register_multi(kernel_multi)
    OBS.register_multi(engine_multi)


def attach_service(service, fs: str = "") -> None:
    """Wire an :class:`~repro.core.nsd.NsdService`'s counters."""
    labels = {"sim": str(_pid(service.sim)), **({"fs": fs} if fs else {})}
    for family, attr in (
        ("nsd.blocks_read", "blocks_read"),
        ("nsd.blocks_written", "blocks_written"),
        ("nsd.failovers", "failovers"),
        ("nsd.retries", "retries"),
        ("nsd.rpc_timeouts", "rpc_timeouts"),
        ("nsd.checksum_failures", "checksum_failures"),
        ("nsd.checksum_verifications", "checksum_verifications"),
        ("nsd.partition_parked", "partition_parked"),
    ):
        OBS.register_callback(
            family,
            (lambda s=service, a=attr: float(getattr(s, a))),
            kind="counter",
            **labels,
        )
    OBS.register_callback(
        "nsd.down_nodes",
        lambda s=service: float(len(s.down_nodes)),
        kind="gauge",
        **labels,
    )
    OBS.register_callback(
        "nsd.inflight_rpcs",
        lambda s=service: float(s.inflight),
        kind="gauge",
        **labels,
    )


def attach_filesystem(fs) -> None:
    """Wire a filesystem's token manager (labels by device name)."""
    tm = fs.token_manager
    labels = {"sim": str(_pid(fs.sim)), "fs": fs.name}
    for family, attr in (
        ("tokens.grants", "grants"),
        ("tokens.revokes", "revokes"),
        ("tokens.dead_holder_releases", "dead_holder_releases"),
        ("tokens.quorum_parked_grants", "quorum_parked_grants"),
    ):
        OBS.register_callback(
            family,
            (lambda t=tm, a=attr: float(getattr(t, a))),
            kind="counter",
            **labels,
        )


def attach_scrubber(scrubber) -> None:
    labels = {"sim": str(_pid(scrubber.fs.sim)), "fs": scrubber.fs.name}
    for family, attr in (
        ("scrub.sweeps", "sweeps"),
        ("scrub.blocks_scanned", "blocks_scanned"),
        ("scrub.rot_found", "rot_found"),
        ("scrub.repairs", "repairs"),
        ("scrub.repair_failures", "repair_failures"),
        ("scrub.bytes_read", "bytes_read"),
    ):
        OBS.register_callback(
            family,
            (lambda s=scrubber, a=attr: float(getattr(s, a))),
            kind="counter",
            **labels,
        )


def attach_hsm(manager) -> None:
    labels = {"sim": str(_pid(manager.fs.sim)), "fs": manager.fs.name}
    for family, attr in (
        ("hsm.migrated_files", "migrated_files"),
        ("hsm.recalled_files", "recalled_files"),
        ("hsm.migrated_bytes", "migrated_bytes"),
        ("hsm.recalled_bytes", "recalled_bytes"),
    ):
        OBS.register_callback(
            family,
            (lambda m=manager, a=attr: float(getattr(m, a))),
            kind="counter",
            **labels,
        )


def attach_pagepool(mount) -> None:
    """Wire one mount's :class:`~repro.core.pagepool.PagePool`.

    The ``m`` label is the mount's serial within its filesystem, so an
    experiment that remounts the same node (restart scenarios) never
    collides on the registry's duplicate-key check.
    """
    labels = {
        "sim": str(_pid(mount.sim)),
        "client": mount.node,
        "fs": mount.fs.name,
        "m": str(len(mount.fs.mounts)),
    }
    pool = mount.pool
    for family, attr in (
        ("client.pagepool.hits", "hits"),
        ("client.pagepool.misses", "misses"),
        ("client.pagepool.evictions", "evictions"),
    ):
        OBS.register_callback(
            family,
            (lambda p=pool, a=attr: float(getattr(p, a))),
            kind="counter",
            **labels,
        )
    for family, attr in (
        ("client.pagepool.used", "used"),
        ("client.pagepool.capacity", "capacity"),
        ("client.pagepool.hit_ratio", "hit_ratio"),
    ):
        OBS.register_callback(
            family,
            (lambda p=pool, a=attr: float(getattr(p, a))),
            kind="gauge",
            **labels,
        )


def attach_gateway(gateway) -> None:
    """Wire a :class:`~repro.cache.gateway.CacheGateway` and its cache.

    Hit/miss/staleness histograms are recorded inline on the gateway's
    read/write paths; the callbacks here expose the running totals and
    derived gauges (hit ratio, origin offload).
    """
    labels = {
        "sim": str(_pid(gateway.sim)), "gw": gateway.name, "fs": gateway.fs.name
    }
    cache = gateway.cache
    for family, attr in (
        ("cache.hits", "hits"),
        ("cache.misses", "misses"),
        ("cache.evictions", "evictions"),
        ("cache.inserts", "inserts"),
        ("cache.invalidations", "invalidations"),
    ):
        OBS.register_callback(
            family,
            (lambda c=cache, a=attr: float(getattr(c, a))),
            kind="counter",
            **labels,
        )
    for family, attr in (
        ("gateway.served_bytes", "served_bytes"),
        ("gateway.origin_bytes", "origin_bytes"),
        ("gateway.write_acks", "write_acks"),
        ("gateway.writes_flushed", "writes_flushed"),
        ("gateway.writeback_stalls", "writeback_stalls"),
        ("gateway.lease_renewals", "lease_renewals"),
        ("gateway.lease_breaks", "lease_breaks"),
        ("gateway.conflicts", "conflicts"),
    ):
        OBS.register_callback(
            family,
            (lambda g=gateway, a=attr: float(getattr(g, a))),
            kind="counter",
            **labels,
        )
    OBS.register_callback(
        "cache.hit_ratio",
        lambda c=cache: c.hit_ratio,
        kind="gauge",
        **labels,
    )
    OBS.register_callback(
        "cache.used_blocks",
        lambda c=cache: float(c.used_blocks),
        kind="gauge",
        **labels,
    )
    OBS.register_callback(
        "cache.dirty_blocks",
        lambda c=cache: float(c.dirty_blocks),
        kind="gauge",
        **labels,
    )
    OBS.register_callback(
        "gateway.origin_offload",
        lambda g=gateway: g.origin_offload,
        kind="gauge",
        **labels,
    )
    OBS.register_callback(
        "gateway.dirty_queue",
        lambda g=gateway: float(g.dirty_queue_depth),
        kind="gauge",
        **labels,
    )


def attach_detector(detector) -> None:
    """Wire a :class:`~repro.faults.detector.DiskLeaseDetector`.

    Detection-latency and MTTR histograms are recorded inline by the
    detector at declare/recover time; the callbacks here expose the
    running totals.
    """
    labels = {"sim": str(_pid(detector.sim))}
    OBS.register_callback(
        "faults.detections",
        lambda d=detector: float(len(d.detections)),
        kind="counter",
        **labels,
    )
    OBS.register_callback(
        "faults.recoveries",
        lambda d=detector: float(len(d.recoveries)),
        kind="counter",
        **labels,
    )
    OBS.register_callback(
        "faults.detected_down",
        lambda d=detector: float(len(d.detected_down)),
        kind="gauge",
        **labels,
    )
