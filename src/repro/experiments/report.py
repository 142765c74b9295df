"""Run every experiment and emit a combined report.

Usage::

    python -m repro.experiments.report            # full-size runs (slow)
    python -m repro.experiments.report --quick    # scaled-down, a few min
    python -m repro.experiments.report --only E1 E8 A3
    python -m repro.experiments.report --out report.txt
    python -m repro.experiments.report --quick --profile   # + simulator counters
    python -m repro.experiments.report --quick --profile-json prof.json
    python -m repro.experiments.report --quick --trace-dir traces/

``--profile`` runs every experiment with the :data:`repro.obs.OBS`
registry enabled and prints each counter family's total over the run
(kernel events, flow recomputes, solver rows, NSD blocks and RPCs), under
the metrics export's family names. ``--profile-json`` writes the same
totals per experiment as JSON (:func:`repro.obs.export.profile_snapshot`).
``--trace-dir`` runs every experiment under the flight recorder, writes
``<id>.trace.json`` Chrome traces into the directory, and embeds each
run's bottleneck-attribution summary in its report section.
``--metrics-dir`` runs every experiment with the :data:`repro.obs.OBS`
registry enabled and exports a Prometheus snapshot (``<id>.prom``), the
scrape time series (``<id>.metrics.jsonl``) and phase/SLO metadata
(``<id>.meta.json``) per experiment — the input to
``python -m repro health``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, Tuple

from repro.experiments.harness import ExperimentResult, format_result
from repro.util.units import GB, KiB, MB, MiB


def _registry(quick: bool) -> Dict[str, Tuple[str, Callable[[], ExperimentResult]]]:
    """id → (description, thunk). Quick mode shrinks workloads, not shapes."""
    from repro.experiments.ablations import (
        run_a1_blocksize,
        run_a2_server_scaling,
        run_a3_window,
        run_a4_upgrade_path,
        run_a5_degraded,
        run_a6_loss,
    )
    from repro.experiments.e12_scec import run_e12_scec
    from repro.experiments.e13_chaos import run_e13, run_e13_quick
    from repro.experiments.e14_integrity import run_e14, run_e14_quick
    from repro.experiments.e15_gateway import run_e15, run_e15_quick
    from repro.experiments.e16_failover import run_e16, run_e16_quick
    from repro.experiments.e17_fleet import run_e17, run_e17_quick
    from repro.experiments.e5_anl_remote import run_e5_anl
    from repro.experiments.e6_deisa import run_e6_deisa
    from repro.experiments.e7_staging_vs_gfs import run_e7
    from repro.experiments.e8_latency import run_e8
    from repro.experiments.e9_auth import run_e9
    from repro.experiments.e10_hsm import run_e10
    from repro.experiments.e11_bgl import run_e11_bgl
    from repro.experiments.fig2_sc02 import run_fig2
    from repro.experiments.fig5_sc03 import run_fig5
    from repro.experiments.fig8_sc04 import run_fig8
    from repro.experiments.fig11_scaling import run_fig11

    if quick:
        return {
            "E1": ("Fig 2 SC'02", lambda: run_fig2(total_bytes=GB(4))),
            "E2": ("Fig 5 SC'03", lambda: run_fig5(
                nsd_servers=20, sdsc_viz_nodes=8, ncsa_viz_nodes=2,
                per_node_bytes=MB(600), restart_after=3.0, restart_pause=2.0)),
            "E3": ("Fig 8 SC'04", lambda: run_fig8(
                nsd_servers=21, clients_per_site=12,
                per_client_phase_bytes=MB(96), phases=2)),
            "E4": ("Fig 11 scaling", lambda: run_fig11(
                node_counts=(1, 8, 32), region_bytes=MiB(32),
                nsd_servers=32, ds4100_count=16)),
            "E5": ("ANL remote", lambda: run_e5_anl(anl_nodes=16, per_node_bytes=MB(64))),
            "E6": ("DEISA", lambda: run_e6_deisa(per_pair_bytes=MB(80))),
            "E7": ("staging vs GFS", lambda: run_e7(
                dataset_bytes=GB(2), output_bytes=MB(128),
                compute_seconds=30.0, fractions=(0.02, 1.0), ncsa_clients=4)),
            "E8": ("latency ablation", lambda: run_e8(nbytes=GB(1))),
            "E9": ("auth", lambda: run_e9(read_bytes=MB(48))),
            "E10": ("HSM", lambda: run_e10(files=12, file_bytes=int(MB(24)),
                                           blocks_per_nsd=96)),
            "E11": ("BG/L", lambda: run_e11_bgl(io_nodes=8,
                                                per_io_node_bytes=MB(64),
                                                nsd_servers=32)),
            "E12": ("SCEC capacity", lambda: run_e12_scec(
                ranks=8, scaled_bytes=MB(256), nsd_servers=32,
                ds4100_count=16)),
            "E13": ("chaos soak", run_e13_quick),
            "E14": ("integrity soak", run_e14_quick),
            "E15": ("caching gateway", run_e15_quick),
            "E16": ("manager failover", run_e16_quick),
            "E17": ("fleet scale", run_e17_quick),
            "A1": ("block size", lambda: run_a1_blocksize(
                block_sizes=(KiB(256), MiB(1), MiB(4)), read_bytes=MB(96))),
            "A2": ("server scaling", lambda: run_a2_server_scaling(
                server_counts=(8, 16), clients=12, region_bytes=MiB(16))),
            "A3": ("TCP window", lambda: run_a3_window()),
            "A4": ("GbE upgrade", lambda: run_a4_upgrade_path(
                clients=12, nsd_servers=4, region_bytes=MiB(16))),
            "A5": ("degraded/failover", lambda: run_a5_degraded(read_bytes=MB(150))),
            "A6": ("loss sweep", lambda: run_a6_loss(losses=(0.0, 1e-5, 1e-3))),
        }
    return {
        "E1": ("Fig 2 SC'02", run_fig2),
        "E2": ("Fig 5 SC'03", run_fig5),
        "E3": ("Fig 8 SC'04", run_fig8),
        "E4": ("Fig 11 scaling", run_fig11),
        "E5": ("ANL remote", run_e5_anl),
        "E6": ("DEISA", run_e6_deisa),
        "E7": ("staging vs GFS", run_e7),
        "E8": ("latency ablation", run_e8),
        "E9": ("auth", run_e9),
        "E10": ("HSM", run_e10),
        "E11": ("BG/L", run_e11_bgl),
        "E12": ("SCEC capacity", run_e12_scec),
        "E13": ("chaos soak", run_e13),
        "E14": ("integrity soak", run_e14),
        "E15": ("caching gateway", run_e15),
        "E16": ("manager failover", run_e16),
        "E17": ("fleet scale", run_e17),
        "A1": ("block size", run_a1_blocksize),
        "A2": ("server scaling", run_a2_server_scaling),
        "A3": ("TCP window", run_a3_window),
        "A4": ("GbE upgrade", run_a4_upgrade_path),
        "A5": ("degraded/failover", run_a5_degraded),
        "A6": ("loss sweep", run_a6_loss),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down runs (minutes, same shapes)")
    parser.add_argument("--only", nargs="*", metavar="ID",
                        help="run only these experiment ids (e.g. E1 A3)")
    parser.add_argument("--out", metavar="FILE", help="also write to FILE")
    parser.add_argument("--profile", action="store_true",
                        help="print the simulator's counter totals "
                             "(kernel events, solver work) per experiment")
    parser.add_argument("--profile-json", metavar="FILE",
                        help="write the counter totals per experiment as "
                             "JSON to FILE (implies profiling)")
    parser.add_argument("--trace-dir", metavar="DIR",
                        help="run under the flight recorder; write "
                             "<id>.trace.json Chrome traces into DIR and "
                             "report per-run bottleneck attribution")
    parser.add_argument("--metrics-dir", metavar="DIR",
                        help="run with the repro.obs telemetry registry "
                             "enabled; write <id>.prom, <id>.metrics.jsonl "
                             "and <id>.meta.json into DIR (readable by "
                             "`python -m repro health`)")
    args = parser.parse_args(argv)

    registry = _registry(args.quick)
    wanted = args.only or list(registry)
    unknown = [e for e in wanted if e not in registry]
    if unknown:
        parser.error(f"unknown experiment ids {unknown}; known: {list(registry)}")

    from repro.sim.trace import TRACE

    profiling = args.profile or args.profile_json is not None
    telemetry = profiling or args.metrics_dir
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
    if args.metrics_dir:
        os.makedirs(args.metrics_dir, exist_ok=True)

    from repro.obs import OBS, export_metrics_dir, profile_snapshot

    sections = []
    profile_snapshots: Dict[str, dict] = {}
    for exp_id in wanted:
        label, thunk = registry[exp_id]
        t0 = time.time()
        print(f"[{exp_id}] {label} ...", file=sys.stderr, flush=True)
        if args.trace_dir:
            TRACE.enable()
        if telemetry:
            OBS.reset()
            OBS.enable()
        try:
            result = thunk()
        finally:
            TRACE.disable()
            OBS.disable()
        elapsed = time.time() - t0
        if profiling:
            profile_snapshots[exp_id] = profile_snapshot(OBS)
        if args.trace_dir:
            result.trace_summary = TRACE.metrics_snapshot()
            trace_path = os.path.join(args.trace_dir, f"{exp_id}.trace.json")
            with open(trace_path, "w") as fh:
                json.dump(TRACE.to_chrome(), fh)
            TRACE.reset()
        if args.metrics_dir:
            paths = export_metrics_dir(
                OBS, args.metrics_dir, exp_id, meta=result.obs or {}
            )
            print(f"[{exp_id}] metrics -> {paths['prom']}",
                  file=sys.stderr, flush=True)
        if telemetry:
            OBS.reset()  # drop the callbacks holding this run's universes
        section = format_result(result) + f"\n({elapsed:.1f}s wall)"
        if args.profile:
            section += "\n" + _profile_table(profile_snapshots[exp_id])
        sections.append(section)

    report = ("\n\n" + "=" * 72 + "\n\n").join(sections)
    print(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report + "\n")
        print(f"\nwritten to {args.out}", file=sys.stderr)
    if args.profile_json:
        with open(args.profile_json, "w") as fh:
            json.dump(profile_snapshots, fh, indent=2, sort_keys=True)
        print(f"profile counters written to {args.profile_json}",
              file=sys.stderr)
    return 0


def _profile_table(snap: dict) -> str:
    """``--profile``'s text table: one line per counter family."""
    lines = ["-- profile --"]
    for family, total in snap["counters"].items():
        shown = f"{int(total):,}" if float(total).is_integer() else f"{total:,.3f}"
        lines.append(f"  {family:<36} {shown:>18}")
    return "\n".join(lines)


def run_trace(exp_id: str, out: str, quick: bool = False) -> int:
    """``python -m repro trace <exp-id> --out trace.json`` backend.

    Runs one experiment under the flight recorder and writes the Chrome
    trace-event JSON (loadable in Perfetto / ``chrome://tracing``); prints
    the bottleneck-attribution summary to stderr.
    """
    registry = _registry(quick)
    if exp_id not in registry:
        raise SystemExit(
            f"unknown experiment id {exp_id!r}; known: {list(registry)}"
        )
    label, thunk = registry[exp_id]
    print(f"[{exp_id}] {label} (tracing) ...", file=sys.stderr, flush=True)

    from repro.sim.trace import TRACE

    TRACE.enable()
    try:
        result = thunk()
    finally:
        TRACE.disable()
    result.trace_summary = TRACE.metrics_snapshot()
    with open(out, "w") as fh:
        json.dump(TRACE.to_chrome(), fh)
    summary = result.trace_summary
    ev = summary["events"]
    print(
        f"{out}: {len(summary['bounds'])} distinct bounds over "
        f"{summary['flows']['recorded']} flows, "
        f"{ev['buffered']} events ({ev['dropped']} evicted)",
        file=sys.stderr,
    )
    for bound, entry in sorted(
        summary["bounds"].items(), key=lambda kv: -kv[1]["sim_seconds"]
    ):
        print(
            f"  {bound:<32} {entry['flows']:>6} flows "
            f"{entry['sim_seconds']:>10.3f} flow-s",
            file=sys.stderr,
        )
    TRACE.reset()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
