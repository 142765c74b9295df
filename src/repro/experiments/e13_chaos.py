"""E13 — chaos soak: scripted faults under an E8-style WAN read.

The paper's production claim (§6.2's primary/secondary NSD server lists,
Fig 9's hot spares) is that the Global File System *rides through*
failures rather than surfacing them to applications. This experiment
replays a :class:`~repro.faults.FaultSchedule` while ANL clients stream a
file over the TeraGrid WAN:

* the primary NSD server node ``nsd01`` crashes mid-stream — nothing
  calls ``mark_down``; the disk-lease detector must notice the missed
  renewals and declare the node dead, at which point parked RPCs fail
  over to the backup server;
* the node later restarts and its first renewal marks it back up;
* (full schedule) a WAN brownout squeezes the site trunk, and a drive
  dies in a DS4100 so a RAID rebuild steals controller bandwidth.

Reported: detection latency (crash → lease expiry), MTTR (crash → node
serving again), degraded-window vs nominal throughput, retry/failover
counters — and the headline invariant: **zero failed reads**.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.harness import Experiment, ExperimentResult, Gate
from repro.faults import FaultSchedule, RetryPolicy, attach_faults
from repro.obs import (
    OBS,
    AvailabilityObjective,
    DEFAULT_LATENCY_BOUNDS,
    LatencyObjective,
    SloTracker,
)
from repro.util.tables import Table
from repro.util.timeseries import TimeSeries
from repro.util.units import MB, MiB

#: The node E13 kills. Not nsd00: that node is the filesystem manager,
#: token manager, and remote contact node — A5 covers killing it.
CRASH_NODE = "nsd01"


def window_mean(series: TimeSeries, t0: float, t1: float) -> float:
    """Time-weighted mean of a piecewise-constant series over [t0, t1)."""
    if series.empty or t1 <= t0:
        return 0.0
    edges = [t0] + [t for t in series.times if t0 < t < t1] + [t1]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        total += series.value_at(a) * (b - a)
    return total / (t1 - t0)


def default_schedule(
    t0: float,
    crash_after: float,
    restart_after: float,
    extra_faults: bool = True,
    wan_link: str = "chi-hub->anl-sw",
    array: str = "ds4100-00",
) -> FaultSchedule:
    """The E13 script: crash/restart, then (optionally) brownout + disk."""
    t_crash = t0 + crash_after
    t_restart = t_crash + restart_after
    schedule = (
        FaultSchedule()
        .crash_node(t_crash, CRASH_NODE)
        .restart_node(t_restart, CRASH_NODE)
    )
    if extra_faults:
        schedule.brownout_link(
            t_restart + 1.5, wan_link, factor=0.05, duration=1.0
        )
        schedule.fail_disk(t_restart + 2.8, array, lun=0)
    return schedule


def run_e13(
    file_bytes: float = MB(960),
    anl_clients: int = 4,
    lease_duration: float = 1.5,
    crash_after: float = 2.0,
    restart_after: float = 6.0,
    extra_faults: bool = True,
    schedule: Optional[FaultSchedule] = None,
    seed: int = 0,
) -> ExperimentResult:
    """Chaos soak on the SDSC 2005 build; deterministic for a given seed."""
    from repro.topology.sdsc2005 import build_sdsc2005

    result = ExperimentResult(
        exp_id="E13",
        title="chaos soak: node crash, lease detection, failover, recovery",
        paper_claim="(§6.2 NSD server lists / Fig 9 spares: failures are survived, "
        "not surfaced)",
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
    service = scenario.fs.service

    # Seed the file from a machine-room client.
    stage = scenario.mount_clients("sdsc", 1)[0]

    def seed_file():
        handle = yield stage.open("/chaos", "w", create=True)
        yield stage.write(handle, int(file_bytes))
        yield stage.close(handle)

    g.run(until=g.sim.process(seed_file(), name="seed"))

    mounts = scenario.mount_clients("anl", anl_clients, readahead=8,
                                    pagepool_bytes=MiB(512))
    t0 = g.sim.now
    if schedule is None:
        schedule = default_schedule(
            t0, crash_after, restart_after, extra_faults=extra_faults
        )
    harness = attach_faults(
        g.sim,
        service,
        manager_node=scenario.fs.manager_node,
        schedule=schedule,
        engine=g.engine,
        network=g.network,
        lease_duration=lease_duration,
        retry=RetryPolicy(),
        retry_rng_streams=g.rng,
        token_managers=[scenario.fs.token_manager],
        arrays={a.name: a for a in scenario.arrays},
    )

    reads_ok = [0]
    reads_failed = [0]
    chunk = int(MiB(1))

    def reader(mount):
        handle = yield mount.open("/chaos", "r")
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

    readers = [
        g.sim.process(reader(m), name=f"reader:{m.node}") for m in mounts
    ]
    g.run(until=g.sim.all_of(readers))
    t_end = g.sim.now
    harness.stop()

    # -- phase windows --------------------------------------------------------
    detector = harness.detector
    t_crash = t0 + crash_after
    t_detect = detector.detections[0][1] if detector.detections else t_end
    t_up = detector.recoveries[0][3] if detector.recoveries else t_end
    series = g.engine.tag_rate_series("anl")
    result.series["anl_rate"] = series
    nominal = window_mean(series, t0, t_crash)
    degraded = window_mean(series, t_crash, t_detect)
    failed_over = window_mean(series, t_detect, t_up)
    recovered = window_mean(series, t_up, t_end)

    table = Table(
        ["phase", "window s", "ANL aggregate MB/s"],
        title=f"{anl_clients} ANL clients each streaming "
        f"{int(file_bytes / MB(1))} MB over the WAN",
    )
    table.add_row(["nominal", t_crash - t0, nominal / 1e6])
    table.add_row(["degraded (crash->detect)", t_detect - t_crash, degraded / 1e6])
    table.add_row(["failed over (detect->up)", t_up - t_detect, failed_over / 1e6])
    table.add_row(["recovered", t_end - t_up, recovered / 1e6])
    result.table = table

    result.metrics.update(harness.metrics())
    result.metrics.update(
        {
            "reads_ok": float(reads_ok[0]),
            "reads_failed": float(reads_failed[0]),
            "bytes_read": file_bytes * anl_clients,
            "wall_seconds": t_end - t0,
            "rate_nominal": nominal,
            "rate_degraded": degraded,
            "rate_failed_over": failed_over,
            "rate_recovered": recovered,
            "degraded_ratio": degraded / nominal if nominal else 0.0,
        }
    )
    result.notes = (
        f"{CRASH_NODE} crashes at t+{crash_after:.1f}s; no manual mark_down — "
        "lease expiry detects it, parked RPCs fail over, zero reads fail"
    )

    if OBS.enabled:
        # Final scrape so the last phase boundary has a row at exactly
        # t_end, then evaluate the chaos-soak SLOs over the time series.
        OBS.scrape(g.sim)
        phases = [
            {"name": "nominal", "t0": t0, "t1": t_crash},
            {"name": "degraded", "t0": t_crash, "t1": t_detect},
            {"name": "failed-over", "t0": t_detect, "t1": t_up},
            {"name": "recovered", "t0": t_up, "t1": t_end},
        ]
        # The latency threshold sits on a histogram bucket boundary so
        # compliance is exact (bucket counts, no interpolation).
        le = next(b for b in DEFAULT_LATENCY_BOUNDS if b >= 1.0)
        tracker = (
            SloTracker()
            .add(LatencyObjective(
                name="wan_read_latency",
                metric="client.read.latency",
                le=le,
                target=0.99,
                window=2.0,
            ))
            .add(AvailabilityObjective(
                name="zero_failed_reads",
                ok_metric="client.read.ok",
                err_metric="client.read.errors",
                target=1.0,
                window=2.0,
            ))
        )
        result.obs = {"phases": phases, "slo": tracker.evaluate(OBS.rows)}
    return result


E13 = Experiment(
    "E13", "chaos soak", run_e13,
    quick=dict(file_bytes=MB(288), anl_clients=2, lease_duration=1.0,
               crash_after=1.0, restart_after=2.0, extra_faults=False),
    gates=(
        Gate("reads_failed", lambda m: m["reads_failed"] == 0,
             "== 0 (paper §6.2: failures are survived, not surfaced)"),
    ),
)
