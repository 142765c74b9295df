"""Per-figure experiment harnesses (see DESIGN.md §3 for the index).

Each module exposes ``run_*`` returning an :class:`ExperimentResult` whose
table/series print the same rows the paper's figure plots, and declares
each of its experiments once as a :class:`~repro.experiments.harness.Experiment`:
id, label, runner, quick-run arguments and the gates a full-size run must
pass. ``EXPERIMENTS.md`` records paper-vs-measured numbers; ``python -m
repro report`` regenerates everything and checks the gates (with
``--quick``, those that hold at quick size).

Index: E1 (Fig 2), E2 (Fig 5), E3 (Fig 8), E4 (Fig 11), E5 (ANL), E6
(DEISA), E7 (staging vs GFS), E8 (latency), E9 (auth), E10 (HSM), E11
(BG/L), E12 (SCEC capacity), E13 (chaos soak: scripted faults,
lease-expiry detection, failover); ablations A1 (block size), A2 (server
count), A3 (TCP window), A4 (GbE upgrade), A5 (degraded/failover), A6
(loss).
"""

from repro.experiments.harness import ExperimentResult, format_result

__all__ = ["ExperimentResult", "format_result"]
