#!/usr/bin/env python
"""The paper's four-year arc in one run: SC'02 → SC'03 → SC'04 → production.

Each demonstration is replayed (scaled) on its faithful topology and the
headline number is compared with the paper's. This is the narrative of
DESIGN.md §2-§5 as executable code.

Run:  python examples/sc_timeline.py        (~2-4 minutes)
"""

from repro.experiments.e5_anl_remote import run_e5_anl
from repro.experiments.fig2_sc02 import run_fig2
from repro.experiments.fig5_sc03 import run_fig5
from repro.experiments.fig8_sc04 import run_fig8
from repro.experiments.harness import sparkline
from repro.util.units import GB, MB, fmt_bits_rate, fmt_rate


def chapter(year, title, paper_line):
    print()
    print(f"--- {year}: {title}")
    print(f"    paper: {paper_line}")


def main():
    print("Massive High-Performance Global File Systems for Grid computing")
    print("the demonstrations, re-run:")

    chapter("SC'02 Baltimore", "GFS via hardware assist (FCIP)",
            "over 720 MB/s despite an 80 ms RTT")
    r = run_fig2(total_bytes=GB(8))
    print(f"    here:  {fmt_rate(r.metric('mean_rate'))} sustained "
          f"of a {fmt_rate(r.metric('ceiling'))} tunnel ceiling")
    print(f"    trace: {sparkline(r.series['read MB/s'])}")

    chapter("SC'03 Phoenix", "first native WAN-GPFS",
            "peak 8.96 Gb/s on one 10 GbE; >1 GB/s sustained; the restart dip")
    r = run_fig5(nsd_servers=24, sdsc_viz_nodes=10, ncsa_viz_nodes=2,
                 per_node_bytes=GB(1.0))
    print(f"    here:  peak {fmt_bits_rate(r.metric('peak_rate'))}, "
          f"median {fmt_rate(r.metric('median_rate'))}")
    print(f"    trace: {sparkline(r.series['uplink rate'])}")

    chapter("SC'04 Pittsburgh", "the true grid prototype (StorCloud + GSI auth)",
            "7-9 Gb/s per SCinet link, ~24 Gb/s aggregate, reads ≈ writes")
    r = run_fig8(nsd_servers=40, clients_per_site=24,
                 per_client_phase_bytes=MB(64), phases=2)
    print(f"    here:  lanes {fmt_bits_rate(r.metric('lane_min_mean'))}"
          f"..{fmt_bits_rate(r.metric('lane_max_mean'))}, "
          f"aggregate {fmt_bits_rate(r.metric('aggregate_mean'))}")
    print(f"    trace: {sparkline(r.series['aggregate'])}")

    chapter("2005 production", "0.5 PB of SATA behind 64 NSD servers",
            "~1.2 GB/s to all 32 nodes at ANL (preliminary)")
    r = run_e5_anl(anl_nodes=16, per_node_bytes=MB(96))
    print(f"    here:  {fmt_rate(r.metric('aggregate_rate'))} aggregate, "
          f"{fmt_rate(r.metric('per_node_rate'))} per node over a "
          f"{r.metric('rtt') * 1e3:.0f} ms path")

    print()
    print("every figure, with its paper gates checked:  python -m repro report")


if __name__ == "__main__":
    main()
