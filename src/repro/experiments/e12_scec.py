"""E12 — §1's extreme case: a 250 TB SCEC run on the production GFS.

Paper: "the Southern California Earthquake Center (SCEC) simulations may
write close to 250 Terabytes in a single run" — half the production
filesystem's raw capacity. The experiment measures the achievable
aggregate write rate with a scaled run, projects the full 250 TB drain
time, and checks the capacity story: the run only fits if the HSM has been
keeping occupancy down (the §8 "integral part of a HSM" argument).
"""

from __future__ import annotations

from repro.experiments.harness import Experiment, ExperimentResult, Gate
from repro.topology.sdsc2005 import build_sdsc2005
from repro.util.tables import Table
from repro.util.units import GB, MB, MiB, TB, fmt_bytes, fmt_rate, fmt_time
from repro.workloads.scec import ScecRun

FULL_RUN_BYTES = TB(250)


def run_e12_scec(
    ranks: int = 32,
    scaled_bytes: float = MB(128) * 32,
    nsd_servers: int = 64,
    ds4100_count: int = 32,
    resident_other_data: float = TB(250),
) -> ExperimentResult:
    scenario = build_sdsc2005(
        nsd_servers=nsd_servers,
        ds4100_count=ds4100_count,
        sdsc_clients=ranks,
        anl_clients=0,
        ncsa_clients=0,
        store_data=False,
    )
    g = scenario.gfs
    mounts = scenario.mount_clients("sdsc")
    run = ScecRun(mounts, "/scec", total_bytes=scaled_bytes, chunk=MiB(4))
    res = g.run(until=run.run())
    rate = res.bytes_written / res.elapsed

    fs_capacity = scenario.fs.capacity
    # capacity accounting at full scale (pure arithmetic on measured rate)
    drain_time = FULL_RUN_BYTES / rate
    fits_empty = FULL_RUN_BYTES <= fs_capacity
    free_with_other = fs_capacity - resident_other_data
    fits_with_other = FULL_RUN_BYTES <= free_with_other
    hsm_must_free = max(0.0, FULL_RUN_BYTES - free_with_other)

    result = ExperimentResult(
        exp_id="E12",
        title="§1 extreme case: a 250 TB SCEC run on the 0.5 PB GFS",
        paper_claim="SCEC 'may write close to 250 Terabytes in a single run'",
    )
    result.metrics["write_rate"] = rate
    result.metrics["drain_days"] = drain_time / 86400.0
    result.metrics["fits_empty"] = 1.0 if fits_empty else 0.0
    result.metrics["fits_with_resident_data"] = 1.0 if fits_with_other else 0.0
    result.metrics["hsm_must_free"] = hsm_must_free
    table = Table(["quantity", "value"], title="SCEC capacity planning")
    table.add_row(["measured aggregate write rate", fmt_rate(rate)])
    table.add_row(["full 250 TB drain time", fmt_time(drain_time)])
    table.add_row(["filesystem capacity", fmt_bytes(fs_capacity)])
    table.add_row(["fits on an empty filesystem", "yes" if fits_empty else "NO"])
    table.add_row(
        [f"fits with {fmt_bytes(resident_other_data)} resident",
         "yes" if fits_with_other else "NO"],
    )
    table.add_row(["HSM must migrate first", fmt_bytes(hsm_must_free)])
    result.table = table
    result.notes = (
        f"rate measured with a {fmt_bytes(scaled_bytes)} scaled run over "
        f"{ranks} writer ranks; projection is arithmetic on the measured rate"
    )
    return result


E12 = Experiment(
    "E12", "SCEC capacity", run_e12_scec,
    quick=dict(ranks=8, scaled_bytes=MB(256), nsd_servers=32, ds4100_count=16),
    gates=(
        Gate("write_rate", lambda m: GB(0.5) < m["write_rate"] < GB(4),
             "0.5 GB/s < write_rate < 4 GB/s: ~1 GB/s for a 32-rank run"),
        Gate("drain_days", lambda m: 1 < m["drain_days"] < 10,
             "1 < drain_days < 10: a 250 TB run (paper) drains in days"),
        Gate("fits_empty", lambda m: m["fits_empty"] == 1.0,
             "== 1: 250 TB fits an empty filesystem"),
        Gate("fits_with_resident_data", lambda m: m["fits_with_resident_data"] == 0.0,
             "== 0: 250 TB does not fit beside 250 TB of resident data"),
        Gate("hsm_must_free", lambda m: m["hsm_must_free"] > TB(10),
             "> 10 TB the HSM must migrate first"),
    ),
)
