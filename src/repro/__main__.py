"""Command-line entry point: ``python -m repro``.

Subcommands::

    python -m repro report [--quick] [--only E1 A3] [--out FILE]
                           [--profile] [--profile-json FILE] [--trace-dir DIR]
                           [--metrics-dir DIR]
    python -m repro run E15 [--quick] [--out FILE] [--metrics-dir DIR]
    python -m repro run --list
    python -m repro trace E8 --out trace.json [--quick]
    python -m repro fuzz [--seeds N] [--base-seed S] [--duration SEC]
                         [--out FILE]
    python -m repro health --metrics-dir DIR [--exp E13] [--html FILE]
    python -m repro info

``report`` regenerates the paper's figures (see EXPERIMENTS.md);
``run`` runs a single experiment by id (shorthand for ``report --only``);
``trace`` runs one experiment under the flight recorder and writes a
Chrome trace-event JSON with per-flow bottleneck attribution;
``fuzz`` runs seeded random fault storms under the invariant oracles
(token safety, acked-write durability, byte-exactness, detection
validity) and exits nonzero on any violation;
``health`` renders the fleet health report from a ``--metrics-dir``
produced by ``run``/``report`` (SLO compliance, per-phase latency,
per-client/server/link rollups);
``info`` prints the system inventory and experiment index.
"""

from __future__ import annotations

import argparse


def _info() -> str:
    import repro
    from repro.experiments.report import _registry

    lines = [
        f"repro {repro.__version__} — reproduction of "
        "'Massive High-Performance Global File Systems for Grid computing' (SC'05)",
        "",
        "experiments:",
    ]
    for exp_id, (label, _) in _registry(False).items():
        lines.append(f"  {exp_id:>4}  {label}")
    lines += [
        "",
        "run one:     python -m repro report --quick --only E1",
        "run all:     python -m repro report --quick",
        "unit tests:  pytest tests/",
        "paper gates: python -m repro report  (full size; exits 1 on a failed gate;",
        "             --quick checks the gates that hold at quick size)",
    ]
    return "\n".join(lines)


def _experiment_list() -> str:
    """One line per runnable experiment id, for ``run --list`` and errors."""
    from repro.experiments.report import _registry

    lines = ["experiments:"]
    for exp_id, (label, _) in _registry(False).items():
        lines.append(f"  {exp_id:>4}  {label}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("info", help="print the system inventory")
    report = sub.add_parser("report", help="regenerate the paper's figures")
    report.add_argument("--quick", action="store_true")
    report.add_argument("--only", nargs="*", metavar="ID")
    report.add_argument("--out", metavar="FILE")
    report.add_argument("--profile", action="store_true")
    report.add_argument("--profile-json", metavar="FILE")
    report.add_argument("--trace-dir", metavar="DIR")
    report.add_argument("--metrics-dir", metavar="DIR")
    run = sub.add_parser(
        "run", help="run one experiment by id (e.g. E13) and print it"
    )
    run.add_argument("exp_id", metavar="EXP_ID", nargs="?",
                     help="experiment id, e.g. E13")
    run.add_argument("--list", action="store_true", dest="list_ids",
                     help="list runnable experiment ids and exit")
    run.add_argument("--quick", action="store_true")
    run.add_argument("--out", metavar="FILE")
    run.add_argument("--metrics-dir", metavar="DIR",
                     help="export telemetry (.prom/.metrics.jsonl/.meta.json) "
                          "into DIR for `python -m repro health`")
    health = sub.add_parser(
        "health",
        help="render the fleet health report from a --metrics-dir "
             "(SLO compliance, per-phase latency, client/server/link rollups)",
    )
    health.add_argument("--metrics-dir", metavar="DIR", required=True)
    health.add_argument("--exp", metavar="ID",
                        help="only this experiment id (default: all found)")
    health.add_argument("--out", metavar="FILE")
    health.add_argument("--html", metavar="FILE",
                        help="also write a static HTML report")
    trace = sub.add_parser(
        "trace",
        help="run one experiment under the flight recorder; write a "
             "Chrome trace (Perfetto-loadable) with bottleneck attribution",
    )
    trace.add_argument("exp_id", metavar="EXP_ID", help="experiment id, e.g. E8")
    trace.add_argument("--out", metavar="FILE", default="trace.json")
    trace.add_argument("--quick", action="store_true")
    fuzz = sub.add_parser(
        "fuzz",
        help="run seeded random fault storms under invariant oracles; "
             "exit nonzero on any violation",
    )
    fuzz.add_argument("--seeds", type=int, default=25, metavar="N",
                      help="number of storms to run (default 25)")
    fuzz.add_argument("--base-seed", type=int, default=0, metavar="S",
                      help="first seed; storms use S..S+N-1 (default 0)")
    fuzz.add_argument("--duration", type=float, default=6.0, metavar="SEC",
                      help="storm length in sim seconds (default 6.0)")
    fuzz.add_argument("--intensity", type=float, default=1.0,
                      help="fault-mix aggressiveness multiplier (default 1.0)")
    fuzz.add_argument("--out", metavar="FILE",
                      help="write per-seed JSON reports to FILE")
    args = parser.parse_args(argv)

    if args.command == "info" or args.command is None:
        print(_info())
        return 0
    if args.command == "report":
        from repro.experiments.report import main as report_main

        forwarded = []
        if args.quick:
            forwarded.append("--quick")
        if args.only:
            forwarded += ["--only", *args.only]
        if args.out:
            forwarded += ["--out", args.out]
        if args.profile:
            forwarded.append("--profile")
        if args.profile_json:
            forwarded += ["--profile-json", args.profile_json]
        if args.trace_dir:
            forwarded += ["--trace-dir", args.trace_dir]
        if args.metrics_dir:
            forwarded += ["--metrics-dir", args.metrics_dir]
        return report_main(forwarded)
    if args.command == "run":
        from repro.experiments.report import _registry
        from repro.experiments.report import main as report_main

        if args.list_ids or args.exp_id is None:
            print(_experiment_list())
            return 0
        if args.exp_id not in _registry(args.quick):
            print(f"unknown experiment id {args.exp_id!r}\n")
            print(_experiment_list())
            return 2
        forwarded = ["--only", args.exp_id]
        if args.quick:
            forwarded.append("--quick")
        if args.out:
            forwarded += ["--out", args.out]
        if args.metrics_dir:
            forwarded += ["--metrics-dir", args.metrics_dir]
        return report_main(forwarded)
    if args.command == "trace":
        from repro.experiments.report import run_trace

        return run_trace(args.exp_id, args.out, quick=args.quick)
    if args.command == "fuzz":
        import json

        from repro.faults.fuzz import run_fuzz

        reports = run_fuzz(
            count=args.seeds,
            base_seed=args.base_seed,
            duration=args.duration,
            intensity=args.intensity,
        )
        failed = [r for r in reports if not r.passed]
        for r in reports:
            status = "ok" if r.passed else "FAIL"
            print(
                f"seed {r.seed:>4}  {status}  ops={r.ops:<4} "
                f"acked={r.writes_acked:<4} reads={r.reads_ok:<4} "
                f"faults={len(r.actions)}"
            )
            for violation in r.violations:
                print(f"           {violation}")
        print(
            f"{len(reports) - len(failed)}/{len(reports)} storms clean "
            f"({sum(r.ops for r in reports)} ops, "
            f"{sum(len(r.actions) for r in reports)} fault actions)"
        )
        if args.out:
            with open(args.out, "w") as fh:
                json.dump([r.to_dict() for r in reports], fh, indent=2)
            print(f"wrote {args.out}")
        return 1 if failed else 0
    if args.command == "health":
        from repro.obs.health import main as health_main

        forwarded = ["--metrics-dir", args.metrics_dir]
        if args.exp:
            forwarded += ["--exp", args.exp]
        if args.out:
            forwarded += ["--out", args.out]
        if args.html:
            forwarded += ["--html", args.html]
        return health_main(forwarded)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
