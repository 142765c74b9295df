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

* ``kernel.*`` — scheduled events (``Simulation._seq``) and heap depth;
* ``flow.*`` / ``fairshare.*`` / ``flowengine.*`` — recomputes, active
  rows, completed flows, solves, route classes;
* ``net.link.utilization{link=...}`` — per-link used fraction;
* ``nsd.*{fs=...}`` — service counters; RPC latency histograms are
  recorded inline by the service (``nsd.rpc.latency{op=...}``);
* ``tokens.*{fs=...}`` — grants and revokes, and ``tokens.manager_down``,
  the service's count of manager-node losses;
* ``scrub.*{fs=...}`` / ``hsm.*{fs=...}``;
* ``client.pagepool.*{client=...}`` / ``cache.*{gw=...}`` /
  ``gateway.*{gw=...}``;
* ``faults.*`` — detections, recoveries (latency histograms inline).

The registry stamps every key with the ``sim`` label of the universe it
lives in (:attr:`repro.sim.kernel.Simulation.id`), so nothing here names
one.
"""

from __future__ import annotations

from functools import partial

from repro.obs.registry import OBS


def _attrs(sim, obj, kind: str, pairs, **labels: str) -> None:
    """One ``kind`` callback per ``(family, attribute)`` pair over ``obj``."""
    for family, attr in pairs:
        OBS.register_callback(
            sim, family, partial(getattr, obj, attr), kind=kind, **labels
        )


def attach_engine(engine) -> None:
    """Wire a :class:`~repro.net.flow.FlowEngine` and its simulation's kernel.

    Every engine attaches, the bare ones a sweep builds per cell included,
    so the kernel, flow and fair-share families cover every universe.
    """
    sim = engine.sim
    state = engine._state

    def aggregation_ratio() -> float:
        ncols, nmembers = state.class_stats()
        return (nmembers / ncols) if ncols else 1.0

    OBS.register_callback(sim, "kernel.events", lambda: sim._seq, kind="counter")
    _attrs(sim, engine, "counter", (
        ("flow.bytes_moved", "bytes_moved"),
        ("flow.completed", "completed_flows"),
        ("flow.recomputes", "recomputes"),
        ("flow.active_rows", "active_rows"),
        ("flow.rate_changes", "rate_changes"),
        ("flowengine.class_joins", "class_joins"),
    ))
    _attrs(sim, state, "counter", (
        ("fairshare.solves", "solves"),
        ("fairshare.solved_rows", "solved_rows"),
        ("fairshare.single_flow_solves", "single_flow_solves"),
        ("fairshare.weight_changes", "weight_changes"),
    ))
    OBS.register_callback(
        sim, "kernel.queue_depth", lambda: len(sim._heap) + len(sim._fifo)
    )
    _attrs(sim, engine, "gauge", (
        ("flow.active", "active_count"),
        ("flowengine.classes", "live_classes"),
    ))
    OBS.register_callback(
        sim, "fairshare.class_cols", lambda: state.class_stats()[0]
    )
    OBS.register_callback(sim, "flowengine.aggregation_ratio", aggregation_ratio)
    OBS.register_multi(
        sim, "net.link.utilization", engine.link_utilization, "link"
    )


def attach_service(service, fs: str = "") -> None:
    """Wire an :class:`~repro.core.nsd.NsdService`'s counters."""
    labels = {"fs": fs} if fs else {}
    _attrs(service.sim, service, "counter", (
        ("nsd.blocks_read", "blocks_read"),
        ("nsd.blocks_written", "blocks_written"),
        ("nsd.failovers", "failovers"),
        ("nsd.retries", "retries"),
        ("nsd.rpc_timeouts", "rpc_timeouts"),
        ("nsd.checksum_failures", "checksum_failures"),
        ("nsd.checksum_verifications", "checksum_verifications"),
        ("nsd.partition_parked", "partition_parked"),
        ("tokens.manager_down", "manager_downs"),
    ), **labels)
    OBS.register_callback(
        service.sim, "nsd.down_nodes", lambda: len(service.down_nodes), **labels
    )
    OBS.register_callback(
        service.sim, "nsd.inflight_rpcs", lambda: service.inflight, **labels
    )


def attach_filesystem(fs) -> None:
    """Wire a filesystem's token manager (labels by device name)."""
    _attrs(fs.sim, fs.token_manager, "counter", (
        ("tokens.grants", "grants"),
        ("tokens.revokes", "revokes"),
        ("tokens.dead_holder_releases", "dead_holder_releases"),
        ("tokens.quorum_parked_grants", "quorum_parked_grants"),
    ), fs=fs.name)


def attach_scrubber(scrubber) -> None:
    _attrs(scrubber.fs.sim, scrubber, "counter", (
        ("scrub.sweeps", "sweeps"),
        ("scrub.blocks_scanned", "blocks_scanned"),
        ("scrub.rot_found", "rot_found"),
        ("scrub.repairs", "repairs"),
        ("scrub.repair_failures", "repair_failures"),
        ("scrub.bytes_read", "bytes_read"),
    ), fs=scrubber.fs.name)


def attach_hsm(manager) -> None:
    _attrs(manager.fs.sim, manager, "counter", (
        ("hsm.migrated_files", "migrated_files"),
        ("hsm.recalled_files", "recalled_files"),
        ("hsm.migrated_bytes", "migrated_bytes"),
        ("hsm.recalled_bytes", "recalled_bytes"),
    ), fs=manager.fs.name)


def attach_pagepool(mount) -> None:
    """Wire one mount's :class:`~repro.core.pagepool.PagePool`.

    The ``m`` label is the mount's serial within its filesystem, so an
    experiment that remounts the same node (restart scenarios) never
    collides on the registry's duplicate-key check.
    """
    labels = {
        "client": mount.node,
        "fs": mount.fs.name,
        "m": str(len(mount.fs.mounts)),
    }
    _attrs(mount.sim, mount.pool, "counter", (
        ("client.pagepool.hits", "hits"),
        ("client.pagepool.misses", "misses"),
        ("client.pagepool.evictions", "evictions"),
    ), **labels)
    _attrs(mount.sim, mount.pool, "gauge", (
        ("client.pagepool.used", "used"),
        ("client.pagepool.capacity", "capacity"),
        ("client.pagepool.hit_ratio", "hit_ratio"),
    ), **labels)


def attach_gateway(gateway) -> None:
    """Wire a :class:`~repro.cache.gateway.CacheGateway` and its cache.

    Hit/miss/staleness histograms are recorded inline on the gateway's
    read/write paths; the callbacks here expose the running totals and
    derived gauges (hit ratio, origin offload).
    """
    labels = {"gw": gateway.name, "fs": gateway.fs.name}
    _attrs(gateway.sim, gateway.cache, "counter", (
        ("cache.hits", "hits"),
        ("cache.misses", "misses"),
        ("cache.evictions", "evictions"),
        ("cache.inserts", "inserts"),
        ("cache.invalidations", "invalidations"),
    ), **labels)
    _attrs(gateway.sim, gateway, "counter", (
        ("gateway.served_bytes", "served_bytes"),
        ("gateway.origin_bytes", "origin_bytes"),
        ("gateway.write_acks", "write_acks"),
        ("gateway.writes_flushed", "writes_flushed"),
        ("gateway.writeback_stalls", "writeback_stalls"),
        ("gateway.lease_renewals", "lease_renewals"),
        ("gateway.lease_breaks", "lease_breaks"),
        ("gateway.conflicts", "conflicts"),
    ), **labels)
    _attrs(gateway.sim, gateway.cache, "gauge", (
        ("cache.hit_ratio", "hit_ratio"),
        ("cache.used_blocks", "used_blocks"),
        ("cache.dirty_blocks", "dirty_blocks"),
    ), **labels)
    _attrs(gateway.sim, gateway, "gauge", (
        ("gateway.origin_offload", "origin_offload"),
        ("gateway.dirty_queue", "dirty_queue_depth"),
    ), **labels)


def attach_detector(detector) -> None:
    """Wire a :class:`~repro.faults.detector.DiskLeaseDetector`.

    Detection-latency and MTTR histograms are recorded inline by the
    detector at declare/recover time; the callbacks here expose the
    running totals.
    """
    sim = detector.sim
    OBS.register_callback(
        sim, "faults.detections", lambda: len(detector.detections), kind="counter"
    )
    OBS.register_callback(
        sim, "faults.recoveries", lambda: len(detector.recoveries), kind="counter"
    )
    OBS.register_callback(
        sim, "faults.detected_down", lambda: len(detector.detected_down)
    )
