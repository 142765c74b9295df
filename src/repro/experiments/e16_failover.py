"""E16 — control-plane failover: token-manager takeover under WAN load.

E13 proves the *data* plane rides through a dead NSD server. This
experiment kills the node the whole control plane lives on — ``nsd00``
is the filesystem manager, the token manager, and the remote contact
node — while ANL clients stream a file over the TeraGrid WAN and an
SDSC client keeps writing:

* the manager stops renewing its own disk lease; the detector (armed
  with ``watch_manager``) declares it dead while suppressing everyone
  else's meaningless expiries;
* the :class:`~repro.faults.RecoveryManager` elects the lowest-id live
  quorum-holding NSD node, freezes the token table, rebuilds it from
  every surviving client's replayed held-ranges, re-arms leases at the
  successor, and releases the parked grants — which redirect;
* the old manager later restarts as an ordinary server (the manager
  role does not fail back).

Headline assertions: **zero failed reads**, **zero rebuild
mismatches**, and takeover latency within the lease + election budget.
A small seeded fuzz cell (random storms under the invariant oracles of
:mod:`repro.faults.fuzz`) rides along so every E16 run also re-checks
token safety and acked-write durability under arbitrary fault mixes.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.harness import Experiment, ExperimentResult, Gate
from repro.faults import FaultSchedule, RetryPolicy, attach_faults
from repro.faults.fuzz import run_fuzz
from repro.obs import OBS
from repro.util.tables import Table
from repro.util.units import MB, MiB

#: The node E16 kills: the filesystem/token manager itself.
MANAGER_NODE = "nsd00"


def default_schedule(
    t0: float, crash_after: float, restart_after: float
) -> FaultSchedule:
    """Kill the manager mid-stream; restart it well after takeover."""
    t_crash = t0 + crash_after
    return (
        FaultSchedule()
        .crash_manager(t_crash, MANAGER_NODE)
        .restart_node(t_crash + restart_after, MANAGER_NODE)
    )


def run_e16(
    file_bytes: float = MB(720),
    anl_clients: int = 4,
    lease_duration: float = 1.5,
    election_sweep: float = 0.25,
    crash_after: float = 2.0,
    restart_after: float = 6.0,
    fuzz_seeds: int = 5,
    fuzz_duration: float = 4.0,
    schedule: Optional[FaultSchedule] = None,
    seed: int = 0,
) -> ExperimentResult:
    """Manager-failover soak on the SDSC 2005 build; deterministic."""
    from repro.experiments.e13_chaos import window_mean
    from repro.topology.sdsc2005 import build_sdsc2005

    result = ExperimentResult(
        exp_id="E16",
        title="control-plane failover: manager takeover with client-replay rebuild",
        paper_claim="(§6.2: any node can die — including the manager — without "
        "surfacing failures to applications)",
    )
    scenario = build_sdsc2005(
        nsd_servers=8,
        ds4100_count=4,
        sdsc_clients=1,
        anl_clients=anl_clients,
        ncsa_clients=0,
        block_size=MiB(1),
        store_data=False,
        seed=seed,
    )
    g = scenario.gfs
    fs = scenario.fs
    assert fs.manager_node == MANAGER_NODE

    # Seed the WAN-read file from a machine-room client; the same client
    # keeps writing through the outage so rw tokens (and their replay)
    # are live when the manager dies.
    stage = scenario.mount_clients("sdsc", 1)[0]

    def seed_file():
        handle = yield stage.open("/failover", "w", create=True)
        yield stage.write(handle, int(file_bytes))
        yield stage.close(handle)

    g.run(until=g.sim.process(seed_file(), name="seed"))

    mounts = scenario.mount_clients("anl", anl_clients, readahead=8,
                                    pagepool_bytes=MiB(512))
    t0 = g.sim.now
    if schedule is None:
        schedule = default_schedule(t0, crash_after, restart_after)
    harness = attach_faults(
        g.sim,
        fs.service,
        manager_node=fs.manager_node,
        schedule=schedule,
        engine=g.engine,
        network=g.network,
        lease_duration=lease_duration,
        retry=RetryPolicy(),
        retry_rng_streams=g.rng,
        token_managers=[fs.token_manager],
        arrays={a.name: a for a in scenario.arrays},
        filesystem=fs,
        election_sweep=election_sweep,
    )

    reads_ok = [0]
    reads_failed = [0]
    writes_ok = [0]
    writes_failed = [0]
    chunk = int(MiB(1))

    def reader(mount):
        handle = yield mount.open("/failover", "r")
        size = int(file_bytes)
        pos = 0
        while pos < size:
            n = min(chunk, size - pos)
            try:
                yield mount.pread(handle, pos, n)
            except ConnectionError:
                reads_failed[0] += 1
            else:
                reads_ok[0] += 1
            pos += n
        yield mount.close(handle)

    def writer():
        """Machine-room writer: rw tokens held across the takeover."""
        handle = yield stage.open("/wlog", "w", create=True)
        pos = 0
        while any(not r.triggered for r in readers):
            try:
                yield stage.pwrite(handle, pos, int(MiB(1)))
                yield stage.fsync(handle)
            except (ConnectionError, IOError):
                writes_failed[0] += 1
            else:
                writes_ok[0] += 1
            pos += int(MiB(1))
            yield g.sim.timeout(0.2)
        yield stage.close(handle)

    readers = [
        g.sim.process(reader(m), name=f"reader:{m.node}") for m in mounts
    ]
    g.sim.process(writer(), name="writer:sdsc")
    g.run(until=g.sim.all_of(readers))
    t_end = g.sim.now
    # Let the tail of the schedule apply (the old manager's restart may
    # land after the readers finish) so the rejoin path — restart, fresh
    # lease, mark_up as an ordinary server — is exercised every run.
    while not harness.schedule_done:
        g.run(until=g.sim.timeout(0.25))
    g.run(until=g.sim.timeout(2 * lease_duration))
    harness.stop()

    recovery = harness.recovery
    detector = harness.detector
    t_crash = t0 + crash_after
    t_detect = detector.detections[0][1] if detector.detections else t_end
    takeovers = recovery.takeovers if recovery is not None else []
    t_takeover = takeovers[0][3] if takeovers else t_end
    successor = takeovers[0][1] if takeovers else fs.manager_node

    series = g.engine.tag_rate_series("anl")
    result.series["anl_rate"] = series
    nominal = window_mean(series, t0, t_crash)
    outage = window_mean(series, t_crash, t_takeover)
    recovered = window_mean(series, t_takeover, t_end)

    table = Table(
        ["phase", "window s", "ANL aggregate MB/s"],
        title=f"{anl_clients} ANL WAN readers across a manager takeover "
        f"({MANAGER_NODE} -> {successor})",
    )
    table.add_row(["nominal", t_crash - t0, nominal / 1e6])
    table.add_row(["outage (crash->takeover)", t_takeover - t_crash, outage / 1e6])
    table.add_row(["recovered", t_end - t_takeover, recovered / 1e6])
    result.table = table

    # Takeover-latency budget: the detection already spent the lease; from
    # declaration the successor needs at most one election sweep plus the
    # replay fan-out (WAN RTT-scale — 0.5 s is generous slack).
    latency_bound = election_sweep + 0.5
    latencies = recovery.takeover_latencies() if recovery is not None else []

    # -- the fuzz cell: random storms under the invariant oracles -------------
    fuzz_reports = run_fuzz(
        count=fuzz_seeds, base_seed=seed, duration=fuzz_duration
    )
    fuzz_violations = sum(len(r.violations) for r in fuzz_reports)

    result.metrics.update(harness.metrics())
    result.metrics.update(
        {
            "reads_ok": float(reads_ok[0]),
            "reads_failed": float(reads_failed[0]),
            "writes_ok": float(writes_ok[0]),
            "writes_failed": float(writes_failed[0]),
            "bytes_read": file_bytes * anl_clients,
            "wall_seconds": t_end - t0,
            "rate_nominal": nominal,
            "rate_outage": outage,
            "rate_recovered": recovered,
            "detection_latency": t_detect - t_crash,
            "takeover_latency_bound": latency_bound,
            "takeover_within_bound": float(
                bool(latencies) and max(latencies) <= latency_bound
            ),
            "fuzz_cases": float(len(fuzz_reports)),
            "fuzz_cases_passed": float(
                sum(1 for r in fuzz_reports if r.passed)
            ),
            "fuzz_violations": float(fuzz_violations),
            "fuzz_ops": float(sum(r.ops for r in fuzz_reports)),
        }
    )
    result.notes = (
        f"{MANAGER_NODE} (fs+token manager) killed at t+{crash_after:.1f}s; "
        f"successor {successor} rebuilt "
        f"{int(result.metrics.get('rebuilt_tokens', 0))} tokens from "
        f"{int(result.metrics.get('replayed_clients', 0))} client replays "
        "with zero mismatches; zero reads failed"
    )

    if OBS.enabled:
        OBS.scrape(g.sim)
        result.obs = {
            "sim": g.sim.id,
            "phases": [
                {"name": "nominal", "t0": t0, "t1": t_crash},
                {"name": "outage", "t0": t_crash, "t1": t_takeover},
                {"name": "recovered", "t0": t_takeover, "t1": t_end},
            ],
        }
    return result


E16 = Experiment(
    "E16", "manager failover", run_e16,
    quick=dict(file_bytes=MB(240), anl_clients=2, lease_duration=1.0,
               crash_after=1.0, restart_after=4.0, fuzz_seeds=3,
               fuzz_duration=3.0),
    gates=(
        Gate("reads_failed", lambda m: m["reads_failed"] == 0,
             "== 0 (paper §6.2: even the manager can die without a failure)"),
        Gate("writes_failed", lambda m: m["writes_failed"] == 0,
             "== 0 across the control-plane outage"),
        Gate("manager_takeovers", lambda m: m["manager_takeovers"] == 1,
             "== 1: exactly one takeover"),
        Gate("rebuild_mismatches", lambda m: m["rebuild_mismatches"] == 0,
             "== 0: the rebuilt token state matches the dead manager's"),
        Gate("takeover_within_bound", lambda m: m["takeover_within_bound"] == 1,
             "== 1: the takeover meets its latency budget"),
        Gate("fuzz_violations", lambda m: m["fuzz_violations"] == 0,
             "== 0: the riding fuzz cell breaks no invariant"),
    ),
)
