"""E3 — Fig 8: SC'04 transfer rates over three SCinet 10 GbE links.

Paper: "Individual transfer rates on each 10 Gb/s connection varied between
7 and 9 Gb/s, with the aggregate performance relatively stable at
approximately 24 Gb/s (3 Gb/s [sic]). The momentary peak was over 27 Gb/s,
sufficient to win this portion of the Bandwidth challenge. Both reads and
writes were demonstrated, in an alternate manner, but the rates were
remarkably constant. Rates between the show floor and both NCSA and SDSC
were virtually identical."
"""

from __future__ import annotations

from typing import List

from repro.experiments.harness import Experiment, ExperimentResult, Gate
from repro.topology.sc04 import build_sc04
from repro.util.tables import Table
from repro.util.units import MB, Gbps, MiB, fmt_bits_rate
from repro.workloads.base import payload_for


def run_fig8(
    nsd_servers: int = 40,
    clients_per_site: int = 24,
    per_client_phase_bytes: float = MB(256),
    phases: int = 4,
) -> ExperimentResult:
    scenario = build_sc04(
        nsd_servers=nsd_servers,
        sdsc_clients=clients_per_site,
        ncsa_clients=clients_per_site,
        with_disks=False,  # floor FS did ~15 GB/s; the 3x10GbE uplinks bind
        store_data=False,
    )
    g = scenario.gfs
    mounts = scenario.sdsc_mounts + scenario.ncsa_mounts
    chunk = MiB(2)

    # Pre-stage one file per client on the floor (local to the servers, so
    # staging does not cross the measured uplinks).
    staging = g.run(
        until=scenario.floor.mmmount("gpfs-sc04", "flr-nsd00", tags=("stage",))
    )

    def stage():
        for i in range(len(mounts)):
            handle = yield staging.open(f"/enzo{i:03d}", "w", create=True)
            yield staging.write(handle, int(per_client_phase_bytes))
            yield staging.close(handle)

    g.run(until=g.sim.process(stage(), name="stage"))
    t_start = g.sim.now

    def client_phase(mount, path, kind):
        handle = yield mount.open(path, "r" if kind == "read" else "r+")
        size = int(per_client_phase_bytes)
        pos = 0
        while pos < size:
            n = int(min(chunk, size - pos))
            if kind == "read":
                yield mount.pread(handle, pos, n)
            else:
                yield mount.pwrite(handle, pos, payload_for(mount, n))
            pos += n
        yield mount.close(handle)
        mount.pool.invalidate(handle.inode.ino)

    phase_kinds: List[str] = []
    for p in range(phases):
        kind = "read" if p % 2 == 0 else "write"
        phase_kinds.append(kind)
        procs = [
            g.sim.process(
                client_phase(m, f"/enzo{i:03d}", kind), name=f"ph{p}-c{i}"
            )
            for i, m in enumerate(mounts)
        ]
        g.run(until=g.sim.all_of(procs))

    t_end = g.sim.now
    # The SCinet monitors reported windowed per-link rates; reduce the exact
    # piecewise-constant traces the same way (1 s windows).
    lane_series = {
        tag: g.engine.tag_rate_series(tag)
        .slice(t_start, t_end)
        .windowed_mean(1.0, t_end=t_end)
        for tag in scenario.lane_tags()
    }
    from repro.util.timeseries import TimeSeries

    total = TimeSeries.sum_of(lane_series.values(), name="aggregate")

    result = ExperimentResult(
        exp_id="E3",
        title="Fig 8: SC'04 transfer rates, three 10 GbE SCinet uplinks",
        paper_claim="7-9 Gb/s per link; ~24 Gb/s aggregate; >27 Gb/s peak; reads ≈ writes",
    )
    table = Table(["link", "mean", "peak"], title="SCinet bandwidth-challenge monitors")
    lane_means = []
    for tag, series in lane_series.items():
        busy = [v for v in series.values if v > 0]
        mean = sum(busy) / len(busy) if busy else 0.0
        lane_means.append(mean)
        result.series[tag] = series
        table.add_row([tag, fmt_bits_rate(mean), fmt_bits_rate(series.max())])
    busy_total = [v for v in total.values if v > 0]
    agg_mean = sum(busy_total) / len(busy_total) if busy_total else 0.0
    table.add_row(["aggregate", fmt_bits_rate(agg_mean), fmt_bits_rate(total.max())])
    result.series["aggregate"] = total
    result.table = table
    result.metrics["aggregate_mean"] = agg_mean
    result.metrics["aggregate_peak"] = total.max()
    result.metrics["lane_min_mean"] = min(lane_means)
    result.metrics["lane_max_mean"] = max(lane_means)

    # reads-vs-writes constancy (alternating phases)
    span = (t_end - t_start) / phases
    read_rates, write_rates = [], []
    for p, kind in enumerate(phase_kinds):
        sl = total.slice(t_start + p * span + 1, t_start + (p + 1) * span)
        if sl.empty:
            continue
        (read_rates if kind == "read" else write_rates).append(sl.mean())
    if read_rates and write_rates:
        result.metrics["read_mean"] = sum(read_rates) / len(read_rates)
        result.metrics["write_mean"] = sum(write_rates) / len(write_rates)
    result.notes = (
        f"{2 * clients_per_site} clients at SDSC+NCSA alternating "
        f"{phases} read/write phases against {nsd_servers} floor servers"
    )
    return result


E3 = Experiment(
    "E3", "Fig 8 SC'04", run_fig8,
    quick=dict(nsd_servers=21, clients_per_site=12,
               per_client_phase_bytes=MB(96), phases=2),
    gates=(
        Gate("lane_min_mean", lambda m: m["lane_min_mean"] > Gbps(6),
             "> 6 Gb/s (paper: each 10 GbE lane between 7 and 9 Gb/s)"),
        Gate("lane_max_mean", lambda m: m["lane_max_mean"] < Gbps(9.5),
             "< 9.5 Gb/s (paper: each 10 GbE lane between 7 and 9 Gb/s)"),
        Gate("aggregate_mean", lambda m: Gbps(20) < m["aggregate_mean"] < Gbps(28.5),
             "20 Gb/s < aggregate_mean < 28.5 Gb/s (paper: ~24 Gb/s, stable)"),
        Gate("read_write_balance",
             lambda m: 0.6 < m["read_mean"] / m["write_mean"] < 1.67,
             "0.6 < read/write < 1.67 (paper: 'remarkably constant')"),
    ),
)
