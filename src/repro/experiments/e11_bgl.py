"""E11 — §5/§8 extension: Blue Gene/L "Intimidata" on the GFS.

Paper: the 128 Gb/s machine-room design point "is an exact match to the
maximum I/O rate of our IBM Blue Gene/L system, Intimidata, which is also
planned to use the GFS as its native file system, both for convenience and
as an early test of the file system capability."

The experiment drains a BG/L checkpoint through the production GFS via the
I/O-node architecture (compute nodes funnel through I/O nodes that run the
filesystem client) and compares the aggregate against the design point,
for both the initial 64 Gb/s build (one GbE per NSD server) and the §8
upgrade (two).
"""

from __future__ import annotations

from repro.experiments.harness import Experiment, ExperimentResult, Gate
from repro.topology.sdsc2005 import attach_bgl, build_sdsc2005
from repro.util.tables import Table
from repro.util.units import Gbps, MB, MiB, fmt_bits_rate
from repro.workloads.scec import ScecRun


def run_e11_bgl(
    io_nodes: int = 32,
    per_io_node_bytes: float = MB(256),
    server_nics=(Gbps(1), Gbps(2)),
    nsd_servers: int = 64,
) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="E11",
        title="§5/§8: BG/L checkpoint I/O vs the machine-room design point",
        paper_claim="128 Gb/s aggregate 'an exact match' to BG/L's max I/O rate",
    )
    table = Table(
        ["server NICs", "design point", "ckpt write", "restart read", "read util"],
        title=f"{io_nodes} BG/L I/O nodes, one checkpoint file per node",
    )
    from repro.workloads.viz import VizReader

    for nic in server_nics:
        scenario = build_sdsc2005(
            nsd_servers=nsd_servers,
            ds4100_count=32,
            sdsc_clients=0,
            anl_clients=0,
            ncsa_clients=0,
            server_nic=nic,
            store_data=False,
        )
        attach_bgl(scenario, io_nodes=io_nodes, nic_rate=Gbps(2))
        mounts = scenario.mount_clients("bgl", pagepool_bytes=MiB(256))
        run = ScecRun(mounts, "/ckpt", total_bytes=per_io_node_bytes * io_nodes,
                      chunk=MiB(4))
        g = scenario.gfs
        res = g.run(until=run.run())
        write_rate = res.bytes_written / res.elapsed
        # restart: every I/O node reads its checkpoint slice back
        for i, m in enumerate(mounts):
            m.pool.invalidate(
                scenario.fs.namespace.resolve(f"/ckpt/wavefield.{i:05d}").ino
            )
        t0 = g.sim.now
        readers = [
            VizReader(m, f"/ckpt/wavefield.{i:05d}", chunk=MiB(4)).run()
            for i, m in enumerate(mounts)
        ]
        g.run(until=g.sim.all_of(readers))
        read_rate = per_io_node_bytes * io_nodes / (g.sim.now - t0)
        design = nic * nsd_servers
        table.add_row(
            [
                fmt_bits_rate(nic),
                fmt_bits_rate(design),
                fmt_bits_rate(write_rate),
                fmt_bits_rate(read_rate),
                f"{read_rate / design:.0%}",
            ]
        )
        key = int(nic * 8 / 1e9)
        result.metrics[f"drain_rate_{key}gbe"] = write_rate
        result.metrics[f"read_rate_{key}gbe"] = read_rate
        result.metrics[f"design_point_{key}gbe"] = design
    result.table = table
    result.notes = (
        "checkpoint writes are DS4100-controller-bound regardless of NICs; "
        "restart reads track the server-NIC design point — which is why §8 "
        "pairs the GbE doubling with a second (archive) HBA"
    )
    return result


E11 = Experiment(
    "E11", "BG/L", run_e11_bgl,
    quick=dict(io_nodes=8, per_io_node_bytes=MB(64), nsd_servers=32),
    gates=(
        Gate("writes_storage_bound",
             lambda m: m["drain_rate_2gbe"] < 1.2 * m["drain_rate_1gbe"],
             "2 GbE drain < 1.2 x 1 GbE drain: writes are storage-bound"),
        Gate("reads_gain_from_nics",
             lambda m: m["read_rate_2gbe"] > m["read_rate_1gbe"],
             "2 GbE reads faster (paper: the 64 -> 128 Gb/s design point)"),
        Gate("reads_beat_writes",
             lambda m: m["read_rate_1gbe"] > 1.3 * m["drain_rate_1gbe"],
             "read rate > 1.3 x write rate (the Fig 11 asymmetry)"),
    ),
)
