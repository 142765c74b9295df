"""Run every experiment and emit a combined report.

Usage::

    python -m repro.experiments.report            # full-size runs, gated (slow)
    python -m repro.experiments.report --quick    # scaled-down, not gated
    python -m repro.experiments.report --only E1 E8 A3
    python -m repro.experiments.report --out report.txt
    python -m repro.experiments.report --quick --profile   # + simulator counters
    python -m repro.experiments.report --quick --profile-json prof.json
    python -m repro.experiments.report --quick --trace-dir traces/

A full-size run checks each experiment's declared gates (the paper's
shapes, :class:`~repro.experiments.harness.Gate`) and prints a tally in
its section; after the whole report is printed and written, it lists
every failed gate and exits 1. ``--quick`` runs are not gated: their
workloads are too small for some of the shapes.

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
from functools import partial
from typing import Callable, Dict, List, Tuple

from repro.experiments.harness import Experiment, ExperimentResult, format_result


def experiments() -> Dict[str, Experiment]:
    """Every experiment's declaration, by id, in report order."""
    from repro.experiments.ablations import A1, A2, A3, A4, A5, A6
    from repro.experiments.e5_anl_remote import E5
    from repro.experiments.e6_deisa import E6
    from repro.experiments.e7_staging_vs_gfs import E7
    from repro.experiments.e8_latency import E8
    from repro.experiments.e9_auth import E9
    from repro.experiments.e10_hsm import E10
    from repro.experiments.e11_bgl import E11
    from repro.experiments.e12_scec import E12
    from repro.experiments.e13_chaos import E13
    from repro.experiments.e14_integrity import E14
    from repro.experiments.e15_gateway import E15
    from repro.experiments.e16_failover import E16
    from repro.experiments.e17_fleet import E17
    from repro.experiments.fig2_sc02 import E1
    from repro.experiments.fig5_sc03 import E2
    from repro.experiments.fig8_sc04 import E3
    from repro.experiments.fig11_scaling import E4

    return {
        e.exp_id: e
        for e in (E1, E2, E3, E4, E5, E6, E7, E8, E9, E10, E11, E12, E13,
                  E14, E15, E16, E17, A1, A2, A3, A4, A5, A6)
    }


def _registry(quick: bool) -> Dict[str, Tuple[str, Callable[[], ExperimentResult]]]:
    """id → (description, thunk). Quick mode shrinks workloads below the
    sizes some paper shapes need, which is why only full-size runs are
    gated."""
    return {
        exp_id: (e.label, partial(e.run, quick))
        for exp_id, e in experiments().items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down runs (seconds each); not gated, "
                             "as some paper shapes need full size")
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

    declared = experiments()
    wanted = args.only or list(declared)
    unknown = [e for e in wanted if e not in declared]
    if unknown:
        parser.error(f"unknown experiment ids {unknown}; known: {list(declared)}")

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
    gate_failures: List[str] = []
    for exp_id in wanted:
        exp = declared[exp_id]
        t0 = time.time()
        print(f"[{exp_id}] {exp.label} ...", file=sys.stderr, flush=True)
        if args.trace_dir:
            TRACE.enable()
        if telemetry:
            OBS.reset()
            OBS.enable()
        try:
            result = exp.run(args.quick)
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
        section = format_result(result)
        if not args.quick:
            failed = exp.failed_gates(result.metrics)
            gate_failures += failed
            passed = len(exp.gates) - len(failed)
            section += f"\ngates: {passed}/{len(exp.gates)} passed"
            section += "".join(f"\n  FAILED {msg}" for msg in failed)
        section += f"\n({elapsed:.1f}s wall)"
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
    if gate_failures:
        print(f"\n{len(gate_failures)} gate(s) failed:", file=sys.stderr)
        for msg in gate_failures:
            print(f"  {msg}", file=sys.stderr)
        return 1
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
