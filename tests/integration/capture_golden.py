"""Regenerate ``golden/golden_metrics.json`` for the bit-identity tests.

Run this ONLY after an intentional semantic change to the experiments or
the data path (new metric, recalibrated model), never to paper over a
drift you can't explain — the whole point of the goldens is that kernel
and transfer-path optimizations must not move a single bit::

    PYTHONPATH=src python tests/integration/capture_golden.py

Values are stored as ``repr`` strings so float comparisons in
``test_golden_metrics.py`` are exact, not approximate.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "golden_metrics.json"


def capture(res) -> dict:
    out = {"metrics": {k: repr(v) for k, v in res.metrics.items()}}
    if res.table is not None:
        out["table"] = [[repr(c) for c in row] for row in res.table.rows]
    return out


def main() -> None:
    from repro.experiments.e8_latency import run_e8
    from repro.experiments.e13_chaos import E13
    from repro.experiments.e14_integrity import E14
    from repro.experiments.fig8_sc04 import run_fig8
    from repro.util.units import GB, MB

    golden = {
        "E8": capture(run_e8(nbytes=GB(1))),
        "E3": capture(
            run_fig8(
                nsd_servers=21,
                clients_per_site=12,
                per_client_phase_bytes=MB(96),
                phases=2,
            )
        ),
        "E13": capture(E13.run(quick=True)),
        "E14": capture(E14.run(quick=True)),
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
