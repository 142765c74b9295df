"""E7 — §1's motivating comparison: GridFTP staging versus direct GFS access.

The paper's three arguments against wholesale data movement, each made
measurable here:

1. **room**: "the computational system chosen may not be able to guarantee
   enough room to receive a required dataset" → the GUR admission check
   excludes the small site for staged jobs only;
2. **rates**: staging moves the *whole* dataset before any science starts
   (time-to-first-byte = the full stage-in);
3. **database-style access**: "the application may treat the very large
   dataset more as a database ... retrieving individual pieces of very
   large files" → direct GFS access moves only ``access_fraction`` of it.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.harness import Experiment, ExperimentResult, Gate
from repro.grid.gridftp import GridFtp
from repro.grid.scheduler import GurScheduler, SiteResources
from repro.grid.staging import DirectGfsJob, JobSpec, StagedJob
from repro.storage.pipes import Pipe
from repro.topology.sdsc2005 import build_sdsc2005
from repro.util.tables import Table
from repro.util.units import GB, Gbps, MB, MiB, TB, fmt_time


def run_e7(
    dataset_bytes: float = GB(8),
    output_bytes: float = GB(0.5),
    compute_seconds: float = 120.0,
    fractions: Sequence[float] = (0.02, 0.1, 0.5, 1.0),
    ncsa_clients: int = 8,
) -> ExperimentResult:
    scenario = build_sdsc2005(
        nsd_servers=32,
        ds4100_count=16,
        sdsc_clients=1,
        anl_clients=0,
        ncsa_clients=ncsa_clients,
        store_data=False,
    )
    g = scenario.gfs
    net = g.network
    # dedicated staging endpoints with fat NICs
    net.add_host("sdsc-gridftp", "sdsc-gbe", Gbps(10), site="sdsc")
    net.add_host("ncsa-scratch", "ncsa-sw", Gbps(10), site="ncsa")

    scheduler = GurScheduler(g.sim)
    scheduler.add_site(SiteResources("ncsa", compute_nodes=256, scratch_bytes=TB(1)))
    scheduler.add_site(
        SiteResources("small-site", compute_nodes=64, scratch_bytes=dataset_bytes / 2)
    )

    gridftp = GridFtp(
        g.sim,
        g.engine,
        g.messages,
        src_disk=Pipe(g.sim, MB(1600), name="sdsc-raid"),
        dst_disk=Pipe(g.sim, MB(800), name="ncsa-scratch-raid"),
    )

    # stage the canonical dataset into the GFS once
    sdsc_mount = scenario.mount_clients("sdsc", 1, pagepool_bytes=MiB(512))[0]

    def seed():
        handle = yield sdsc_mount.open("/nvo-catalog", "w", create=True)
        yield sdsc_mount.write(handle, int(dataset_bytes))
        yield sdsc_mount.close(handle)

    g.run(until=g.sim.process(seed(), name="seed"))
    gfs_mount = scenario.mount_clients("ncsa", 1, readahead=24)[0]

    result = ExperimentResult(
        exp_id="E7",
        title="§1: wholesale staging (GridFTP) vs direct GFS access",
        paper_claim="GFS avoids whole-dataset movement, scratch reservations, and stage-in delay",
    )
    table = Table(
        ["mode", "access", "total", "first byte", "moved GB"],
        title=f"{dataset_bytes / 1e9:.0f} GB dataset, {compute_seconds:.0f}s compute",
    )

    staged = StagedJob(
        g.sim, scheduler, gridftp, "sdsc-gridftp", "ncsa-scratch", "ncsa", streams=8
    )
    gfs_job = DirectGfsJob(g.sim, scheduler, gfs_mount, "ncsa", io_chunk=MiB(8))

    for fraction in fractions:
        spec = JobSpec(
            dataset_bytes=dataset_bytes,
            output_bytes=output_bytes,
            compute_seconds=compute_seconds,
            nodes=8,
            access_fraction=fraction,
        )
        rep_staged = g.run(until=staged.run(spec))
        rep_gfs = g.run(
            until=gfs_job.run(spec, "/nvo-catalog", f"/out-{fraction}")
        )
        gfs_mount.pool.invalidate(
            scenario.fs.namespace.resolve("/nvo-catalog").ino
        )
        for rep in (rep_staged, rep_gfs):
            table.add_row(
                [
                    rep.mode,
                    f"{fraction:.0%}",
                    fmt_time(rep.total_time),
                    fmt_time(rep.time_to_first_byte),
                    rep.bytes_moved / 1e9,
                ]
            )
        result.metrics[f"staged_total_{fraction}"] = rep_staged.total_time
        result.metrics[f"gfs_total_{fraction}"] = rep_gfs.total_time
        result.metrics[f"gfs_moved_{fraction}"] = rep_gfs.bytes_moved
        result.metrics[f"staged_moved_{fraction}"] = rep_staged.bytes_moved
        result.metrics[f"staged_ttfb_{fraction}"] = rep_staged.time_to_first_byte
        result.metrics[f"gfs_ttfb_{fraction}"] = rep_gfs.time_to_first_byte
        # data-handling overhead = wall time not spent computing
        result.metrics[f"staged_overhead_{fraction}"] = (
            rep_staged.total_time - rep_staged.compute_time
        )
        result.metrics[f"gfs_overhead_{fraction}"] = (
            rep_gfs.total_time - rep_gfs.compute_time
        )

    # the §1 exclusion effect: the small site cannot admit the staged job
    staged_sites = scheduler.eligible_sites(nodes=8, scratch=dataset_bytes + output_bytes)
    gfs_sites = scheduler.eligible_sites(nodes=8, scratch=0)
    result.metrics["staged_eligible_sites"] = float(len(staged_sites))
    result.metrics["gfs_eligible_sites"] = float(len(gfs_sites))
    result.table = table
    result.notes = (
        f"staging always moves the full dataset; sites eligible: "
        f"staged={staged_sites}, gfs={gfs_sites}"
    )
    return result


E7 = Experiment(
    "E7", "staging vs GFS", run_e7,
    quick=dict(dataset_bytes=GB(2), output_bytes=MB(128),
               compute_seconds=30.0, fractions=(0.02, 1.0), ncsa_clients=4),
    gates=(
        Gate("bytes_moved_at_2pct",
             lambda m: m["staged_moved_0.02"] > 10 * m["gfs_moved_0.02"],
             "staging moves > 10x the GFS bytes at 2% access (paper)"),
        Gate("first_byte_at_2pct",
             lambda m: m["staged_ttfb_0.02"] > 10 * m["gfs_ttfb_0.02"],
             "staged first byte > 10x later than GFS (paper: no stage-in)"),
        Gate("gfs_wins_at_2pct",
             lambda m: m["gfs_overhead_0.02"] < m["staged_overhead_0.02"],
             "GFS overhead < staging overhead at 2% access"),
        Gate("staging_wins_at_full_reuse",
             lambda m: m["staged_overhead_1.0"] < m["gfs_overhead_1.0"],
             "staging overhead < GFS overhead at full reuse (the crossover)"),
        Gate("eligible_sites",
             lambda m: m["staged_eligible_sites"] < m["gfs_eligible_sites"],
             "staged jobs see fewer eligible sites (paper §1)"),
    ),
)
