"""End-to-end benchmark: five workloads, checked outputs, per-layer cost split.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --seed 0
    python3 benchmarks/e2e/run.py --seed 0 --workload fleet figs --repeat 5 --json out.json
    python3 benchmarks/e2e/run.py --workload lan_read --seed 3 --seconds 10 --trace 1

Each workload run is a fresh, single-threaded worker process (worker.py),
started one after another, never in parallel. ``--trace`` adds one
profiled worker per workload and reports the per-layer metrics instead
of the end-to-end ones. Every metric is printed by name with its unit.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
nonzero when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from layers import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"

#: name -> unit; per run (see end_to_end), then medians over ``--repeat`` runs.
END_TO_END = {
    "ops_per_s": "ops/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

#: Timed-region counters read after the untraced run: name -> unit.
COUNTERS = {
    "kernel.events": "count",
    "kernel.events_per_op": "events/op",
    "flow.recomputes": "count",
    "flow.rate_changes": "count",
    "flow.aggregation_ratio": "flows/column",
    "fairshare.solves": "count",
    "fairshare.solved_rows": "count",
    "fairshare.rows_per_solve": "rows/solve",
    "fairshare.single_flow_frac": "fraction",
    "nsd.blocks_read": "count",
    "nsd.blocks_written": "count",
    "nsd.retries": "count",
    "tokens.grants": "count",
    "tokens.revokes": "count",
    "pagepool.hit_ratio": "fraction",
    "pagepool.evictions": "count",
    "cache.hit_ratio": "fraction",
    "cache.evictions": "count",
    "gateway.origin_per_served": "fraction",
    "gateway.writeback_stalls": "count",
}

#: Everything ``--trace`` reports: name -> unit.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.self_frac": "fraction" for layer in LAYERS},
    "trace.overhead": "ratio",
    **COUNTERS,
    "nsd.rpcs": "count",
    "nsd.blocks_per_rpc": "blocks/rpc",
}

#: Every worker pins native thread pools to one thread, and string hashing
#: to one seed, so runs of one seed are comparable and repeatable. glibc
#: raises its mmap threshold each time a large block is freed, after which
#: numpy's buffers fragment the heap by however much the allocation order
#: happens to allow: ``figs`` peaked anywhere from 92 to 103 MiB as the
#: checkout path or a docstring changed. Fixing the threshold at its
#: default keeps ``peak_rss_mib`` close to the memory in use (44 MiB there).
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_THRESHOLD_": "131072",
}


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, seconds: float, profile: bool) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if profile:
        cmd.append("--profile")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV}, capture_output=True,
            text=True, timeout=max(150.0, 4 * seconds),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload}: worker timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerError(
            f"{workload}: worker exited {proc.returncode}\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(raw: dict, attempted: int) -> dict:
    """Counter metrics from one episode's raw timed-region counter deltas."""
    solves, single = raw["solves"], raw["single_flow_solves"]
    return {
        "kernel.events": raw["events"],
        "kernel.events_per_op": ratio(raw["events"], attempted),
        "flow.recomputes": raw["recomputes"],
        "flow.rate_changes": raw["rate_changes"],
        "flow.aggregation_ratio": ratio(raw["flows"], raw["flows"] - raw["class_joins"]),
        "fairshare.solves": solves,
        "fairshare.solved_rows": raw["solved_rows"],
        "fairshare.rows_per_solve": ratio(raw["solved_rows"], solves),
        "fairshare.single_flow_frac": ratio(single, single + solves),
        "nsd.blocks_read": raw["blocks_read"],
        "nsd.blocks_written": raw["blocks_written"],
        "nsd.retries": raw["retries"],
        "tokens.grants": raw["grants"],
        "tokens.revokes": raw["revokes"],
        "pagepool.hit_ratio": ratio(raw["pool_hits"], raw["pool_hits"] + raw["pool_misses"]),
        "pagepool.evictions": raw["pool_evictions"],
        "cache.hit_ratio": ratio(raw["cache_hits"], raw["cache_hits"] + raw["cache_misses"]),
        "cache.evictions": raw["cache_evictions"],
        "gateway.origin_per_served": ratio(raw["origin_bytes"], raw["served_bytes"]),
        "gateway.writeback_stalls": raw["writeback_stalls"],
    }


def mismatches(label: str, got: dict, want: dict, rel_tol: float = 0.0) -> list:
    """Names whose values differ (beyond ``rel_tol``), as messages."""
    out = []
    for key in sorted(set(got) | set(want)):
        a, b = got.get(key), want.get(key)
        if a is None or b is None:
            out.append(f"{label} {key}: {a!r} vs {b!r}")
        elif a != b and abs(a - b) > rel_tol * max(abs(a), abs(b)):
            out.append(f"{label} {key}: {a!r} vs {b!r}")
    return out


def summarize(values: list) -> dict:
    """Median and quartiles (as ``statistics.quantiles`` gives them)."""
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def end_to_end(run: dict) -> dict:
    """One run's metrics: medians over its episodes, in host-speed seconds
    (see ``worker.Metronome``)."""
    episodes = run["episodes"]
    return {
        "ops_per_s": statistics.median(e["attempted"] / e["wall_s"] for e in episodes),
        "wall_s": statistics.median(e["wall_s"] for e in episodes),
        "setup_s": statistics.median(e["setup_s"] for e in episodes),
        "peak_rss_mib": run["peak_rss_mib"],
    }


def host_slowdown(runs: list) -> float:
    """Median wall seconds per host-speed second over every timed region."""
    return statistics.median(
        e["raw_wall_s"] / e["wall_s"] for run in runs for e in run["episodes"]
    )


def check_runs(runs: list, reference: dict) -> list:
    """Run-level checks: each episode's own, determinism across repeats (the
    ``i``-th episodes of all runs share one input seed), reference."""
    failures = []
    firsts = {}
    for r, run in enumerate(runs):
        for e, ep in enumerate(run["episodes"]):
            label = f"run {r} episode {e}"
            failures += [f"{label}: {msg}" for msg in ep["failures"]]
            first = firsts.setdefault(e, ep)
            failures += mismatches(f"{label} counter", ep["counters"], first["counters"])
            failures += mismatches(f"{label} output", ep["outputs"], first["outputs"])
    if reference:
        failures += mismatches("reference", firsts[0]["outputs"], reference["outputs"],
                               reference["rel_tol"])
    return failures


def check_traced(traced: dict, untraced_counters: dict) -> list:
    failures = [f"unmapped repro module {m}" for m in traced["unmapped"]]
    total, folded = traced["profiled_s"], sum(traced["layers"].values())
    if abs(folded - total) > 0.01 * total:
        failures.append(f"layers sum to {folded:.4f} s of {total:.4f} s profiled")
    failures += mismatches("traced counter", traced["episodes"][0]["counters"],
                           untraced_counters)
    return failures


def per_layer(traced: dict, untraced_wall: float, counters: dict) -> dict:
    """``untraced_wall``: the untraced timed regions' median wall seconds."""
    layers, total = traced["layers"], traced["profiled_s"]
    ep = traced["episodes"][0]
    raw = ep["counters"]
    metrics = {f"{k}.self_s": layers[k] for k in LAYERS}
    metrics.update({f"{k}.self_frac": ratio(layers[k], total) for k in LAYERS})
    metrics["trace.overhead"] = ratio(ep["raw_wall_s"], untraced_wall)
    metrics.update(counters)
    metrics["nsd.rpcs"] = traced["nsd_rpcs"]
    metrics["nsd.blocks_per_rpc"] = ratio(
        raw["blocks_read"] + raw["blocks_written"], traced["nsd_rpcs"]
    )
    return metrics


def bench_workload(name: str, args, reference: dict) -> dict:
    runs = [run_worker(name, args.seed, args.seconds, False) for _ in range(args.repeat)]
    row = {"runs": runs, "failures": check_runs(runs, reference)}
    row["e2e"] = {m: summarize([end_to_end(run)[m] for run in runs]) for m in END_TO_END}
    first = runs[0]["episodes"][0]
    row["counters"] = derive(first["counters"], first["attempted"])
    attempted = failed = 0
    for run in runs:
        for ep in run["episodes"]:
            attempted += ep["attempted"]
            failed += ep["attempted"] if row["failures"] else ep["attempted"] - ep["completed"]
    if args.trace:
        traced = run_worker(name, args.seed, args.seconds, True)
        row["traced"] = traced
        row["failures"] += check_traced(traced, first["counters"])
        untraced_wall = statistics.median(
            e["raw_wall_s"] for run in runs for e in run["episodes"])
        row["per_layer"] = per_layer(traced, untraced_wall, row["counters"])
        if row["failures"]:
            failed = attempted
    row["attempted"], row["failed"] = attempted, failed
    return row


def report(name: str, row: dict, trace: bool) -> None:
    for metric, unit in END_TO_END.items():
        s = row["e2e"][metric]
        print(f"{name:12s} {metric:28s} {s['median']:14.6g} {unit:10s} "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    print(f"{name:12s} {'failed_frac':28s} {ratio(row['failed'], row['attempted']):14.6g} "
          f"{'failed/op':10s} ({row['failed']} of {row['attempted']} ops)")
    print(f"{name:12s} {'(host slowdown)':28s} {host_slowdown(row['runs']):14.6g} "
          f"{'wall/host':10s} (timed regions' wall seconds per host-speed second)")
    if trace:
        for metric, unit in PER_LAYER.items():
            print(f"{name:12s} {metric:28s} {row['per_layer'][metric]:14.6g} {unit}")
    for msg in row["failures"]:
        print(f"{name:12s} CHECK FAILED: {msg}")


def main(argv=None) -> int:
    # Exit through SystemExit on SIGTERM, so a running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], allow_abbrev=False
    )
    parser.add_argument("--workload", nargs="+", choices=workloads, default=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="wall seconds each run measures (default: BENCHMARK.json)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload (default 1)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also run each workload under cProfile; report per-layer metrics")
    parser.add_argument("--json", help="write every run, span and count here")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: simulator sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if {m["name"]: m["unit"] for m in spec[key]} != ours:
            print(f"run.py: BENCHMARK.json {key} differs from this script's metrics",
                  file=sys.stderr)
            return 2

    stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    rows = {}
    try:
        for name in args.workload:
            ref = None
            if args.seed == stored.get("seed"):
                ref = {"outputs": stored["outputs"].get(name, {}),
                       "rel_tol": stored["rel_tol"]}
            rows[name] = bench_workload(name, args, ref)
            report(name, rows[name], args.trace)
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    if args.json:
        Path(args.json).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "repeat": args.repeat,
             "workloads": rows}, indent=1))

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, row in rows.items():
        values = row["per_layer"] if args.trace else {
            m: s["median"] for m, s in row["e2e"].items()}
        prefix = "" if len(rows) == 1 else f"{name}."
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": values[metric], "unit": unit}
    correct = not any(row["failures"] for row in rows.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
