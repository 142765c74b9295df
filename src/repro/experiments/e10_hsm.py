"""E10 — §8 future work: HSM migrate/recall and the copyright-library model.

Paper: "we would like the GFS disk to form an integral part of a HSM, with
an automatic migration of unused data to tape, and the automatic recall of
requested data" plus dual-site archives ("SDSC and the Pittsburgh
Supercomputing Center are already providing remote second copies for each
other's archives").
"""

from __future__ import annotations

from repro.core.cluster import Gfs, NsdSpec
from repro.experiments.harness import Experiment, ExperimentResult, Gate
from repro.hsm.manager import HsmManager, MigrationPolicy
from repro.hsm.replicate import ArchiveReplicator
from repro.hsm.tape import LTO2, TapeLibrary
from repro.util.tables import Table
from repro.util.units import Gbps, MB, MiB, fmt_time


def run_e10(
    files: int = 24,
    file_bytes: int = int(MB(64)),
    blocks_per_nsd: int = 512,
) -> ExperimentResult:
    g = Gfs(seed=5)
    net = g.network
    net.add_node("sdsc-sw", kind="switch")
    net.add_node("psc-sw", kind="switch")
    net.add_link("sdsc-sw", "psc-sw", Gbps(10), delay=0.030)
    servers = [f"s{i}" for i in range(4)]
    for s in servers:
        net.add_host(s, "sdsc-sw", Gbps(1), site="sdsc")
    net.add_host("hsm-mover", "sdsc-sw", Gbps(10), site="sdsc")
    net.add_host("psc-archive", "psc-sw", Gbps(10), site="psc")
    sdsc = g.add_cluster("sdsc", site="sdsc")
    sdsc.add_nodes(servers + ["hsm-mover"])
    fs = sdsc.mmcrfs(
        "gpfs",
        [NsdSpec(server=s, blocks=blocks_per_nsd) for s in servers],
        block_size=MiB(1),
        store_data=False,
    )
    mover = g.run(until=sdsc.mmmount("gpfs", "hsm-mover", pagepool_bytes=MiB(256)))
    library = TapeLibrary(g.sim, spec=LTO2, drives=4, cartridges=200, name="sdsc-silo")
    policy = MigrationPolicy(min_age=3600.0, high_water=0.55, low_water=0.30)
    hsm = HsmManager(mover, library, policy=policy)

    # populate the filesystem, ageing files progressively
    def populate():
        for i in range(files):
            handle = yield mover.open(f"/archive/f{i:03d}" if False else f"/f{i:03d}", "w", create=True)
            yield mover.write(handle, file_bytes)
            yield mover.close(handle)

    g.run(until=g.sim.process(populate(), name="populate"))
    now = g.sim.now
    for i in range(files):
        fs.namespace.resolve(f"/f{i:03d}").atime = now - (files - i) * 7200.0

    occupancy_before = hsm.resident_fraction()
    t0 = g.sim.now
    migrated = g.run(until=hsm.run_policy())
    policy_time = g.sim.now - t0
    occupancy_after = hsm.resident_fraction()

    # recall latency with the cartridge still mounted (seek + stream)
    t0 = g.sim.now
    g.run(until=hsm.recall(migrated[0]))
    recall_warm = g.sim.now - t0
    # force a dismount so the next recall pays the robot too
    for drive in library.drives:
        drive.mounted = None
    t0 = g.sim.now
    g.run(until=hsm.recall(migrated[1]))
    recall_cold = g.sim.now - t0

    # dual-copy replication to the partner site
    psc_library = TapeLibrary(g.sim, spec=LTO2, drives=4, cartridges=200, name="psc-silo")
    replicator = ArchiveReplicator(
        g.sim, g.engine, library, psc_library, "hsm-mover", "psc-archive"
    )
    t0 = g.sim.now
    replicated = g.run(until=replicator.replicate_all())
    replication_time = g.sim.now - t0

    result = ExperimentResult(
        exp_id="E10",
        title="§8: HSM water-mark migration, tape recall, dual-site archive",
        paper_claim="automatic migrate-to-tape / recall; remote second copies (SDSC<->PSC)",
    )
    result.metrics["occupancy_before"] = occupancy_before
    result.metrics["occupancy_after"] = occupancy_after
    result.metrics["migrated_files"] = float(len(migrated))
    result.metrics["recall_cold_s"] = recall_cold
    result.metrics["recall_warm_s"] = recall_warm
    result.metrics["replicated_segments"] = float(replicated)
    table = Table(["metric", "value"], title="HSM lifecycle")
    table.add_row(["disk occupancy before", f"{occupancy_before:.0%}"])
    table.add_row(["policy high/low water", "55% / 30%"])
    table.add_row(["files migrated", len(migrated)])
    table.add_row(["disk occupancy after", f"{occupancy_after:.0%}"])
    table.add_row(["policy run time", fmt_time(policy_time)])
    table.add_row(["cold recall (robot+seek+stream)", fmt_time(recall_cold)])
    table.add_row(["warm recall (tape mounted)", fmt_time(recall_warm)])
    table.add_row(["segments replicated to PSC", replicated])
    table.add_row(["replication time", fmt_time(replication_time)])
    result.table = table
    result.notes = "oldest-atime-first migration until below the low water mark"
    return result


E10 = Experiment(
    "E10", "HSM", run_e10,
    quick=dict(files=12, file_bytes=int(MB(24)), blocks_per_nsd=96),
    gates=(
        Gate("occupancy_before", lambda m: m["occupancy_before"] > 0.55,
             "> 0.55: the run starts above the high-water mark"),
        Gate("occupancy_after", lambda m: m["occupancy_after"] <= 0.32,
             "<= 0.32: migrated to tape down to the low-water mark"),
        Gate("migrated_files", lambda m: m["migrated_files"] > 0,
             "> 0 files migrated to tape"),
        Gate("warm_recall_faster", lambda m: m["recall_warm_s"] < m["recall_cold_s"],
             "warm recall faster than cold (tape mount + seek)"),
        Gate("recall_cold_s", lambda m: 10 < m["recall_cold_s"] < 600,
             "10 s < cold recall < 600 s: seconds to minutes"),
        Gate("second_copy_complete",
             lambda m: m["replicated_segments"] == m["migrated_files"],
             "replicated_segments == migrated_files (remote second copies)"),
    ),
)
