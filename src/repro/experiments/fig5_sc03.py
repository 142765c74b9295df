"""E2 — Fig 5: SC'03 bandwidth, native WAN-GPFS over one 10 GbE.

Paper: "over a maximum 10 Gb/s link, the peak transfer rate was almost
9 Gb/s (actually 8.96 Gb/s) and over 1 GB/s was easily sustained. The dip
in Fig. 5 corresponds to the visualization application terminating
normally as it ran out of data and was restarted."
"""

from __future__ import annotations

from typing import List

from repro.experiments.harness import Experiment, ExperimentResult, Gate
from repro.topology.sc03 import build_sc03
from repro.util.tables import Table
from repro.util.units import GB, MB, Gbps, MiB, fmt_bits_rate, fmt_rate
from repro.workloads.viz import VizReader


def run_fig5(
    nsd_servers: int = 40,
    sdsc_viz_nodes: int = 16,
    ncsa_viz_nodes: int = 4,
    per_node_bytes: float = GB(1.5),
    restart_after: float = 8.0,
    restart_pause: float = 4.0,
) -> ExperimentResult:
    scenario = build_sc03(
        nsd_servers=nsd_servers,
        sdsc_viz_nodes=sdsc_viz_nodes,
        ncsa_viz_nodes=ncsa_viz_nodes,
        with_disks=False,  # §3: servers "had sufficient bandwidth to
        # saturate the 10 GbE link"; the uplink, not the disks, binds
        store_data=False,
    )
    g = scenario.gfs
    writer = scenario.writer_mount

    # stage the Enzo output onto the floor filesystem (not measured)
    def stage():
        for i in range(sdsc_viz_nodes + ncsa_viz_nodes):
            handle = yield writer.open(f"/dump{i:03d}", "w", create=True)
            yield writer.write(handle, int(per_node_bytes))
            yield writer.close(handle)

    g.run(until=g.sim.process(stage(), name="stage"))
    t_start = g.sim.now

    # visualization phase: every node streams its dump. The visualization
    # *application* spans all nodes — when it runs out of data it exits and
    # is restarted as a whole (the Fig 5 dip), so every reader pauses.
    readers: List[VizReader] = []
    mounts = scenario.sdsc_mounts + scenario.ncsa_mounts
    for i, mount in enumerate(mounts):
        readers.append(
            VizReader(
                mount,
                f"/dump{i:03d}",
                chunk=MiB(2),
                restart_at=t_start + restart_after,
                restart_pause=restart_pause,
            )
        )
    procs = [r.run() for r in readers]
    g.run(until=g.sim.all_of(procs))

    series = g.engine.tag_rate_series("sc03").slice(t_start, g.sim.now + 1)
    result = ExperimentResult(
        exp_id="E2",
        title="Fig 5: SC'03 bandwidth over the 10 GbE SciNet uplink",
        paper_claim="peak 8.96 Gb/s of 10 Gb/s; >1 GB/s sustained; dip at app restart",
    )
    result.series["uplink rate"] = series
    peak = series.max()
    mid = series.percentile(50)
    dip = series.slice(t_start + restart_after, t_start + restart_after + restart_pause)
    recovery = series.slice(t_start + restart_after + restart_pause + 1.0, g.sim.now)
    result.metrics["peak_rate"] = peak
    result.metrics["median_rate"] = mid
    result.metrics["dip_rate"] = dip.mean() if not dip.empty else 0.0
    result.metrics["recovery_rate"] = recovery.mean() if not recovery.empty else 0.0
    table = Table(["metric", "value"], title="SC'03 WAN-GPFS visualization")
    table.add_row(["peak", fmt_bits_rate(peak)])
    table.add_row(["median", fmt_rate(mid)])
    table.add_row(["during restart", fmt_rate(result.metrics["dip_rate"])])
    table.add_row(["after restart", fmt_rate(result.metrics["recovery_rate"])])
    result.table = table
    result.notes = (
        f"{len(mounts)} viz nodes at SDSC+NCSA behind one 10 GbE; the viz "
        f"app exits at t+{restart_after:.0f}s and restarts {restart_pause:.0f}s "
        "later (the Fig 5 dip)"
    )
    return result


E2 = Experiment(
    "E2", "Fig 5 SC'03", run_fig5,
    quick=dict(nsd_servers=20, sdsc_viz_nodes=8, ncsa_viz_nodes=2,
               per_node_bytes=MB(600), restart_after=3.0, restart_pause=2.0),
    gates=(
        Gate("peak_rate_band", lambda m: Gbps(8) < m["peak_rate"] <= Gbps(10),
             "8 Gb/s < peak_rate <= 10 Gb/s (paper: peak 8.96 Gb/s of the 10 GbE)"),
        Gate("median_rate", lambda m: m["median_rate"] > 1e9,
             "> 1 GB/s (paper: 'over 1 GB/s was easily sustained')"),
        Gate("restart_dip", lambda m: m["dip_rate"] < 0.75 * m["peak_rate"],
             "dip_rate < 0.75 x peak_rate (paper: the rate dips at app restart)"),
        Gate("restart_recovery", lambda m: m["recovery_rate"] > 0.6 * m["peak_rate"],
             "recovery_rate > 0.6 x peak_rate (paper: the rate recovers)"),
    ),
)
