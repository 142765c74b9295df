"""SLO tracking: availability + latency objectives with error-budget burn.

An objective is evaluated against the JSONL scrape rows (the same rows
:mod:`repro.obs.export` writes), not against live metrics — so the SLO
math works identically online (at experiment end) and offline
(``python -m repro health`` over a ``--metrics-dir``).

Definitions, following the standard SRE error-budget formulation:

* **compliance** — fraction of good events over a span (reads under the
  latency threshold; successful reads vs failures);
* **error budget** — ``1 - target``: the tolerated bad fraction;
* **burn rate** — ``(1 - compliance) / (1 - target)``: how many times
  faster than "exactly on target" the budget is being consumed. Burn 1.0
  spends the budget exactly; burn 14 is the classic page-now threshold.
  A ``target`` of 1.0 has zero budget, so burn is reported as ``None``
  (never ``inf`` — the outputs must round-trip through JSON).

Sliding windows are formed by differencing cumulative counters and
histograms between scrape rows ``window`` sim-seconds apart (counter
resets handled like Prometheus ``rate()``). Windows with no events are
vacuously compliant.

Everything is pure arithmetic over the rows: same seed → same rows →
bit-identical SLO report.

Phases and objectives are declared on one universe's clock. A run that
builds several simulations scrapes every universe's keys into each row,
and each universe's clock starts at 0, so callers first narrow the rows
to the declaring universe with :func:`universe_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import Histogram, counter_delta, merge_histograms, parse_key


@dataclass(frozen=True)
class LatencyObjective:
    """``target`` fraction of observations in ``metric`` must be <= ``le``.

    ``metric`` names a histogram family; all labeled children are
    aggregated. ``le`` should lie on a bucket boundary of the histogram's
    scheme — compliance is computed from bucket counts, which round
    *against* the objective when ``le`` falls inside a bucket.
    """

    name: str
    metric: str
    le: float
    target: float
    window: float = 5.0


@dataclass(frozen=True)
class AvailabilityObjective:
    """``target`` fraction of ``ok + err`` events must be ok.

    ``ok_metric``/``err_metric`` name counter families (labeled children
    aggregated). "Zero failed reads" is ``target=1.0``.
    """

    name: str
    ok_metric: str
    err_metric: str
    target: float
    window: float = 5.0


def universe_rows(rows: List[dict], sim: int) -> List[dict]:
    """The rows universe ``sim`` scraped, each holding only the keys
    labelled with that universe."""
    label = str(sim)
    out = []
    for row in rows:
        if row["sim"] != sim:
            continue
        row = dict(row)
        for table in ("counters", "gauges", "histograms"):
            row[table] = {
                key: value for key, value in row.get(table, {}).items()
                if parse_key(key)[1].get("sim") == label
            }
        out.append(row)
    return out


def _children(table: dict, family: str) -> list:
    """A family's values over its labeled children in a scrape row."""
    prefix = family + "{"
    return [table[k] for k in sorted(table) if k == family or k.startswith(prefix)]


def _family_sum(table: Dict[str, float], family: str) -> float:
    """Sum a counter family across its labeled children in a scrape row."""
    return sum(_children(table, family))


def _family_hist(row: Optional[dict], family: str) -> Histogram:
    """A histogram family's labeled children in a scrape row, merged
    (empty when there is no row)."""
    table = row.get("histograms", {}) if row is not None else {}
    return merge_histograms(
        Histogram.from_dict(d, name=family) for d in _children(table, family)
    )


def _burn(compliance: float, target: float) -> Optional[float]:
    if target >= 1.0:
        return None
    return (1.0 - compliance) / (1.0 - target)


def _window_rows(rows: List[dict], window: float) -> List[Tuple[dict, dict]]:
    """Pair each row with the latest row at least ``window`` earlier.

    With a uniform scrape cadence this yields one sliding window per
    scrape; degenerate inputs (one row, giant window) yield start-to-row
    windows, so short runs still get a meaningful max-burn figure.
    """
    out: List[Tuple[dict, dict]] = []
    lo = 0
    for i in range(1, len(rows)):
        while (
            lo + 1 < i and rows[lo + 1]["t"] <= rows[i]["t"] - window
        ):
            lo += 1
        out.append((rows[lo], rows[i]))
    return out


class SloTracker:
    """Evaluates a set of objectives over scrape rows."""

    def __init__(self) -> None:
        self.objectives: List[object] = []

    def add(self, objective) -> "SloTracker":
        self.objectives.append(objective)
        return self

    # -- per-objective math -------------------------------------------------

    @staticmethod
    def _latency_counts(obj: LatencyObjective, row: dict) -> Tuple[float, float]:
        """(good, total) cumulative at ``row`` for a latency objective."""
        h = _family_hist(row, obj.metric)
        if h.count == 0:
            return 0.0, 0.0
        return float(h.count_le(obj.le)), float(h.count)

    @staticmethod
    def _avail_counts(obj: AvailabilityObjective, row: dict) -> Tuple[float, float]:
        counters = row.get("counters", {})
        ok = _family_sum(counters, obj.ok_metric)
        err = _family_sum(counters, obj.err_metric)
        return ok, ok + err

    def _evaluate_one(self, obj, rows: List[dict]) -> dict:
        counts = (
            self._latency_counts
            if isinstance(obj, LatencyObjective)
            else self._avail_counts
        )
        if rows:
            good, total = counts(obj, rows[-1])
        else:
            good, total = 0.0, 0.0
        compliance = good / total if total else 1.0

        worst = None  # (burn, t0, t1, compliance)
        for r0, r1 in _window_rows(rows, obj.window):
            g0, t0 = counts(obj, r0)
            g1, t1 = counts(obj, r1)
            wgood = counter_delta(g0, g1)
            wtotal = counter_delta(t0, t1)
            if wtotal <= 0:
                continue
            wcomp = max(0.0, min(1.0, wgood / wtotal))
            wburn = _burn(wcomp, obj.target)
            key = wburn if wburn is not None else 1.0 - wcomp
            if worst is None or key > worst[0]:
                worst = (key, r0["t"], r1["t"], wcomp)

        out = {
            "name": obj.name,
            "kind": "latency" if isinstance(obj, LatencyObjective) else
                    "availability",
            "target": obj.target,
            "window": obj.window,
            "events": total,
            "good_events": good,
            "compliance": compliance,
            "error_budget": 1.0 - obj.target,
            "burn_rate": _burn(compliance, obj.target),
            "breached": compliance < obj.target,
            "max_window_burn": None,
            "max_window_compliance": None,
            "max_window_span": None,
        }
        if isinstance(obj, LatencyObjective):
            out["metric"] = obj.metric
            out["le"] = obj.le
        else:
            out["ok_metric"] = obj.ok_metric
            out["err_metric"] = obj.err_metric
        if worst is not None:
            burn, t0, t1, wcomp = worst
            out["max_window_burn"] = (
                burn if obj.target < 1.0 else None
            )
            out["max_window_compliance"] = wcomp
            out["max_window_span"] = [t0, t1]
            if obj.target >= 1.0 and wcomp < 1.0:
                out["breached"] = True
        return out

    def evaluate(self, rows: List[dict]) -> List[dict]:
        """One result dict per objective, in registration order."""
        return [self._evaluate_one(obj, rows) for obj in self.objectives]


def phase_stats(
    rows: List[dict],
    phases: List[dict],
    latency_metric: str,
    ok_metric: str,
    err_metric: str,
) -> List[dict]:
    """Per-phase latency percentiles + availability from scrape rows.

    ``phases`` is ``[{"name": ..., "t0": ..., "t1": ...}, ...]``; each
    phase is measured by differencing the last scrape at or before
    ``t0`` against the last scrape at or before ``t1`` (scrapes land on
    the collector cadence, so boundaries resolve to the nearest scrape
    at or under the boundary). Phases with no reads report ``None``
    percentiles and vacuous availability.
    """
    def row_at(t: float) -> Optional[dict]:
        best = None
        for row in rows:
            if row["t"] <= t + 1e-9:
                best = row
            else:
                break
        return best

    out: List[dict] = []
    for phase in phases:
        r0 = row_at(phase["t0"])
        r1 = row_at(phase["t1"])
        entry = {
            "name": phase["name"],
            "t0": phase["t0"],
            "t1": phase["t1"],
            "reads": 0,
            "p50": None,
            "p99": None,
            "availability": 1.0,
            "ok": 0.0,
            "errors": 0.0,
        }
        if r1 is not None:
            dh = Histogram.delta(
                _family_hist(r0, latency_metric).to_dict(),
                _family_hist(r1, latency_metric).to_dict(),
                name=latency_metric,
            )
            if dh.count > 0:
                entry["reads"] = dh.count
                entry["p50"] = dh.quantile(0.50)
                entry["p99"] = dh.quantile(0.99)
            c0 = r0.get("counters", {}) if r0 is not None else {}
            c1 = r1.get("counters", {})
            ok = counter_delta(
                _family_sum(c0, ok_metric), _family_sum(c1, ok_metric)
            )
            err = counter_delta(
                _family_sum(c0, err_metric), _family_sum(c1, err_metric)
            )
            entry["ok"] = ok
            entry["errors"] = err
            if ok + err > 0:
                entry["availability"] = ok / (ok + err)
        out.append(entry)
    return out
