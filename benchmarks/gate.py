"""Fail when a microbench's measured throughput drops under 70% of its committed one.

Usage (from the repository root, after saving the committed file aside and
re-running the bench, which overwrites its rows)::

    python benchmarks/gate.py BENCH_kernel.committed.json BENCH_kernel.json

Every row of the committed ``BENCH_*.json`` must have a measurement, and its
``ops_per_s`` must reach 70% of the committed figure. CI runners are noisy,
so the gate is deliberately loose: it catches a >30% regression, not drift.
The deterministic counts a row records (:data:`COUNTS`) do not depend on the
runner, so each must equal the committed one exactly: a changed count means
the bench now measures different work, and its row must be re-recorded.
Rows named ``*_pre_*`` are frozen history (the numbers before an
optimization landed), not gates. Exits nonzero, naming every failing row.
"""

from __future__ import annotations

import json
import sys

#: Fraction of the committed ``ops_per_s`` a measurement must reach.
FLOOR = 0.7

#: Row fields that a run reproduces exactly on any machine.
COUNTS = (
    "kernel_events", "ops", "transfers", "nflows", "peak_concurrent",
    "flows_peak", "solver_cols_peak", "solved_rows", "column_reduction",
    "bit_identical",
)


def failures(committed: dict, measured: dict) -> list:
    """One message per gated row that is missing, under the floor, or whose
    counts differ from the committed ones."""
    out = []
    for name, want in sorted(committed.items()):
        if "_pre_" in name:
            continue
        got = measured.get(name)
        if got is None:
            out.append(f"{name}: no measurement recorded")
            continue
        floor = FLOOR * want["ops_per_s"]
        print(f"{name}: {got['ops_per_s']:.0f} ops/s "
              f"(committed {want['ops_per_s']:.0f}, floor {floor:.0f})")
        if got["ops_per_s"] < floor:
            out.append(f"{name}: {got['ops_per_s']:.0f} ops/s is below "
                       f"{FLOOR:.0%} of committed {want['ops_per_s']:.0f}")
        for key in COUNTS:
            if key in want and got.get(key) != want[key]:
                out.append(f"{name}: {key} {got.get(key)} differs from "
                           f"committed {want[key]}")
    return out


def main(argv: list) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(argv[0]) as fh:
        committed = json.load(fh)
    with open(argv[1]) as fh:
        measured = json.load(fh)
    failed = failures(committed, measured)
    if failed:
        sys.exit("perf regression: " + "; ".join(failed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
