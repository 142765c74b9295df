"""Compare two commits' ``run.py --json`` files, one row per workload and metric.

    python3 benchmarks/e2e/compare.py --base b*.json --change c*.json

Measure both commits with the same ``--seconds``, at least ten runs a
side, alternating which side runs first (one ``--repeat 1`` file per run,
or one ``--repeat N`` file per side); the runs of each side's files are
pooled. For every end-to-end metric this prints each side's median and
quartiles, the pairs the change won (run i against run i; ties count for
neither), and the medians' difference against the parent's interquartile
spread. The verdict is

* ``regression`` -- the change's median is worse than the parent's by
  more than the metric's allowance: its bound in ``BENCHMARK.json`` times
  the parent's median, and for ``setup_s`` at least 0.2 s;
* ``unresolved`` -- the parent's own spread is wider than the allowance,
  and not every run of the change beats every run of the parent;
* ``gain`` -- at least ten pairs, the change won nine tenths of them,
  and the medians differ by more than the parent's spread;
* ``within bound`` -- otherwise.

Counters that differ between the sides are listed after the table. The
exit code is 1 when any row is a regression.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import summarize

ROOT = Path(__file__).resolve().parents[2]

#: metric -> smallest allowance in its own unit, whatever its bound gives.
FLOOR = {"setup_s": 0.2}


def pooled(paths: list) -> dict:
    """workload -> {"values": {metric: [...]}, "counters": {...}} over files."""
    rows: dict = {}
    for path in paths:
        for name, row in json.loads(Path(path).read_text())["workloads"].items():
            pool = rows.setdefault(name, {"values": {}, "counters": row["counters"]})
            for metric, summary in row["e2e"].items():
                pool["values"].setdefault(metric, []).extend(summary["values"])
    return rows


def verdict(base: list, change: list, better: str, bound: float, floor: float) -> tuple:
    sign = 1.0 if better == "higher" else -1.0
    pairs = min(len(base), len(change))
    wins = sum(1 for x, y in zip(base, change) if sign * (y - x) > 0)
    b = summarize(base)
    diff = summarize(change)["median"] - b["median"]
    iqr = b["q3"] - b["q1"]
    allowed = max(bound * abs(b["median"]), floor)
    if -sign * diff > allowed:
        label = "regression"
    elif iqr > allowed and not all(sign * (y - x) > 0 for x in base for y in change):
        label = "unresolved"
    elif pairs >= 10 and wins >= 0.9 * pairs and sign * diff > iqr:
        label = "gain"
    else:
        label = "within bound"
    return wins, diff, iqr, label


def fmt(values: list) -> str:
    s = summarize(values)
    return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True, help="parent commit's files")
    parser.add_argument("--change", nargs="+", required=True, help="change's files")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = pooled(args.base), pooled(args.change)
    regressions = 0
    print(f"{'workload':12s} {'metric':13s} {'base median [q1, q3]':36s} "
          f"{'change median [q1, q3]':36s} {'won':>7s} {'diff':>11s} "
          f"{'base iqr':>10s}  verdict")
    for name, b_row in base.items():
        c_row = change.get(name)
        if c_row is None:
            print(f"{name:12s} no change runs")
            continue
        for metric in spec["end_to_end"]:
            b = b_row["values"][metric["name"]]
            c = c_row["values"][metric["name"]]
            wins, diff, iqr, label = verdict(b, c, metric["better"], metric["bound"],
                                             FLOOR.get(metric["name"], 0.0))
            regressions += label == "regression"
            print(f"{name:12s} {metric['name']:13s} {fmt(b):36s} {fmt(c):36s} "
                  f"{wins:3d}/{min(len(b), len(c)):<3d} {diff:11.4g} {iqr:10.4g}  {label}")
    for name, b_row in base.items():
        c_counters = change.get(name, {}).get("counters", {})
        for key, old in sorted(b_row["counters"].items()):
            new = c_counters.get(key)
            if new is not None and new != old:
                print(f"{name:12s} counter {key}: {old:.6g} -> {new:.6g}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
