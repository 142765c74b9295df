"""E6 — §7: DEISA's four-site MC-GPFS.

Paper: "the current wide area network bandwidth of 1Gb/s among the DEISA
core sites can be fully exploited by the global file system. The only
limiting factors left are the 1Gb/s network connection and disk I/O
bandwidth. This could be confirmed by several benchmarks, which showed I/O
rates of more than 100 Mbytes/s, thus hitting the theoretical limit of the
network connection." Also: a plasma-physics turbulence code ran "at the
different core sites, using direct I/O to the MC-GPFS, the disks
physically located hundreds of kilometers away".
"""

from __future__ import annotations

from itertools import permutations

from repro.experiments.harness import Experiment, ExperimentResult, Gate
from repro.topology.deisa import CORE_SITES, build_deisa
from repro.util.tables import Table
from repro.util.units import MB, MiB
from repro.workloads.base import payload_for
from repro.workloads.viz import VizReader


def run_e6_deisa(
    per_pair_bytes: float = MB(200),
    pairs=None,
) -> ExperimentResult:
    scenario = build_deisa(store_data=False)
    g = scenario.gfs
    pair_list = list(pairs) if pairs is not None else list(permutations(CORE_SITES, 2))

    result = ExperimentResult(
        exp_id="E6",
        title="§7: DEISA MC-GPFS cross-site I/O rates",
        paper_claim=">100 MB/s per pair, hitting the 1 Gb/s WAN limit",
    )
    table = Table(
        ["reader site", "fs site", "read MB/s", "write MB/s"],
        title="DEISA core-site pairs (1 Gb/s WAN)",
    )
    rates = []
    for reader_site, fs_site in pair_list:
        # stage a file locally at the serving site
        local = scenario.mount(fs_site, fs_site)
        path = f"/turb-{reader_site}-{fs_site}"

        def stage(local=local, path=path):
            handle = yield local.open(path, "w", create=True)
            yield local.write(handle, int(per_pair_bytes))
            yield local.close(handle)

        g.run(until=g.sim.process(stage(), name="stage"))
        # remote read (direct I/O over the WAN)
        remote = scenario.mount(reader_site, fs_site, readahead=24)
        t0 = g.sim.now
        g.run(until=VizReader(remote, path, chunk=MiB(2)).run())
        read_rate = per_pair_bytes / (g.sim.now - t0)
        # remote write (the turbulence code writing its output back)
        t0 = g.sim.now

        def wback(remote=remote, path=path):
            handle = yield remote.open(path + ".out", "w", create=True)
            written = 0
            while written < per_pair_bytes:
                n = int(min(MiB(2), per_pair_bytes - written))
                yield remote.write(handle, payload_for(remote, n))
                written += n
            yield remote.close(handle)

        g.run(until=g.sim.process(wback(), name="wback"))
        write_rate = per_pair_bytes / (g.sim.now - t0)
        rates.append((read_rate, write_rate))
        table.add_row([reader_site, fs_site, read_rate / 1e6, write_rate / 1e6])

    result.table = table
    result.metrics["min_read"] = min(r for r, _ in rates)
    result.metrics["min_write"] = min(w for _, w in rates)
    result.metrics["max_read"] = max(r for r, _ in rates)
    result.metrics["wan_ceiling"] = 1e9 / 8 * 0.94
    result.notes = f"{len(pair_list)} ordered site pairs; full-mesh exports"
    return result


E6 = Experiment(
    "E6", "DEISA", run_e6_deisa,
    quick=dict(per_pair_bytes=MB(80)),
    gates=(
        Gate("min_read", lambda m: m["min_read"] > MB(100),
             "> 100 MB/s on every pair (paper: 'I/O rates of more than 100 Mbytes/s')"),
        Gate("max_read", lambda m: m["max_read"] <= m["wan_ceiling"] * 1.01,
             "max_read <= 1.01 x wan_ceiling (paper: 'the theoretical limit')"),
        Gate("min_write", lambda m: m["min_write"] > MB(75),
             "> 75 MB/s: write-behind uses the WAN too"),
    ),
)
