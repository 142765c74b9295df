"""benchmarks/gate.py, the CI throughput gate over committed BENCH_*.json rows."""

import json
import subprocess
import sys
from pathlib import Path

GATE = Path(__file__).resolve().parents[1] / "benchmarks" / "gate.py"

COMMITTED = {
    "churn_1k": {"ops_per_s": 100.0, "kernel_events": 5499, "nflows": 1000},
    "churn_1k_pre_incremental": {"ops_per_s": 1000.0, "kernel_events": 6499},
}


def gate(tmp_path, measured):
    committed_path = tmp_path / "committed.json"
    measured_path = tmp_path / "measured.json"
    committed_path.write_text(json.dumps(COMMITTED))
    measured_path.write_text(json.dumps(measured))
    return subprocess.run(
        [sys.executable, str(GATE), str(committed_path), str(measured_path)],
        capture_output=True, text=True,
    )


def measured_row(**fields):
    row = {"ops_per_s": 100.0, "kernel_events": 5499, "nflows": 1000}
    row.update(fields)
    return {"churn_1k": row}


def test_passes_at_the_floor_and_skips_history_rows(tmp_path):
    done = gate(tmp_path, measured_row(ops_per_s=70.0))
    assert done.returncode == 0, done.stderr
    assert "churn_1k: 70 ops/s (committed 100, floor 70)" in done.stdout


def test_fails_below_the_floor(tmp_path):
    done = gate(tmp_path, measured_row(ops_per_s=69.0))
    assert done.returncode == 1
    assert "churn_1k: 69 ops/s is below 70% of committed 100" in done.stderr


def test_checks_only_the_counts_the_committed_row_records(tmp_path):
    # Timings may differ, and a count the committed row lacks is not gated.
    done = gate(tmp_path, measured_row(elapsed_s=0.1, peak_concurrent=493))
    assert done.returncode == 0, done.stderr


def test_fails_when_a_count_differs(tmp_path):
    done = gate(tmp_path, measured_row(kernel_events=6499))
    assert done.returncode == 1
    assert "churn_1k: kernel_events 6499 differs from committed 5499" in done.stderr
    assert "nflows" not in done.stderr


def test_fails_on_a_missing_row(tmp_path):
    done = gate(tmp_path, {})
    assert done.returncode == 1
    assert "churn_1k: no measurement recorded" in done.stderr
