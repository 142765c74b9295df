"""E1 — Fig 2: SC'02 read performance, SDSC → Baltimore over FCIP.

Paper: "the transfer rate achieved was over 720 MB/s; a very healthy
fraction of the maximum possible [8 Gb/s]", sustained flat for the run,
over an 80 ms RTT — "the very sustainable character of the peak transfer
rate".
"""

from __future__ import annotations

from repro.experiments.harness import Experiment, ExperimentResult, Gate
from repro.topology.sc02 import build_sc02
from repro.util.tables import Table
from repro.util.units import GB, MB, fmt_rate


def run_fig2(
    total_bytes: float = GB(20),
    outstanding: int = 12,
    command_bytes: int = 8 << 20,
) -> ExperimentResult:
    scenario = build_sc02(outstanding=outstanding, command_bytes=command_bytes)
    sim = scenario.sim
    evt = scenario.client.stream_read(total_bytes)
    sim.run(until=evt)
    series = scenario.client.meter.series(t_end=sim.now)
    # drop the ramp-up second for the sustained view
    steady = series.slice(2.0, series.times[-1]) if len(series) > 4 else series
    result = ExperimentResult(
        exp_id="E1",
        title="Fig 2: SC'02 GFS read performance SDSC → show floor",
        paper_claim=">720 MB/s sustained of 8 Gb/s max, 80 ms RTT, flat trace",
    )
    result.series["read MB/s"] = series
    result.metrics["mean_rate"] = steady.mean()
    result.metrics["peak_rate"] = series.max()
    result.metrics["sustained_fraction"] = (
        steady.percentile(10) / steady.mean() if steady.mean() else 0.0
    )
    result.metrics["ceiling"] = scenario.tunnel.usable_rate
    table = Table(["metric", "value"], title="SC'02 FCIP streaming read")
    table.add_row(["mean rate", fmt_rate(result.metrics["mean_rate"])])
    table.add_row(["peak rate", fmt_rate(result.metrics["peak_rate"])])
    table.add_row(["tunnel ceiling", fmt_rate(result.metrics["ceiling"])])
    table.add_row(["RTT (ms)", 80.0])
    result.table = table
    result.notes = (
        f"{outstanding} outstanding x {command_bytes >> 20} MiB SCSI commands "
        "pipelined over the 80 ms path"
    )
    return result


E1 = Experiment(
    "E1", "Fig 2 SC'02", run_fig2,
    quick=dict(total_bytes=GB(4)),
    gates=(
        Gate("mean_rate_band", lambda m: MB(650) < m["mean_rate"] <= m["ceiling"],
             "650 MB/s < mean_rate <= ceiling (paper: >720 MB/s of 8 Gb/s)"),
        Gate("mean_rate_fraction", lambda m: m["mean_rate"] > 0.7 * m["ceiling"],
             "mean_rate > 0.7 x ceiling (paper: 'a very healthy fraction')"),
        Gate("sustained_fraction", lambda m: m["sustained_fraction"] > 0.9,
             "> 0.9 (paper: 'the very sustainable character of the peak')"),
        Gate("peak_rate_sane", lambda m: m["peak_rate"] < GB(1),
             "< 1 GB/s (physically sane over the 80 ms path)"),
    ),
)
