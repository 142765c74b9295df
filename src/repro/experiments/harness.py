"""Experiment result carrier, declaration record and rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.util.tables import Table
from repro.util.timeseries import TimeSeries


@dataclass
class ExperimentResult:
    """One reproduced figure/table."""

    exp_id: str  # "E1" .. "A3"
    title: str  # e.g. "Fig 2: SC'02 read performance"
    paper_claim: str  # the number/shape the paper reports
    table: Optional[Table] = None
    series: Dict[str, TimeSeries] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: str = ""
    #: ``TRACE.metrics_snapshot()`` when the run was traced (span counts,
    #: bottleneck attribution, per-link saturation); ``None`` otherwise.
    trace_summary: Optional[dict] = None
    #: Telemetry sidecar when the run had the repro.obs registry enabled:
    #: ``{"phases": [...], "slo": [...]}``. Deliberately NOT part of
    #: ``metrics`` — the golden-metrics tests pin that key set, and
    #: telemetry must not change goldens.
    obs: Optional[dict] = None

    def metric(self, name: str) -> float:
        try:
            return self.metrics[name]
        except KeyError:
            raise KeyError(
                f"experiment {self.exp_id} has no metric {name!r}; "
                f"available: {sorted(self.metrics)}"
            ) from None


@dataclass(frozen=True)
class Gate:
    """One acceptance check on a full-size run: a named predicate over
    ``ExperimentResult.metrics``. ``claim`` states the threshold and, where
    the paper gives one, the paper's number; a failure quotes it next to
    the measured values of every metric ``check`` read."""

    name: str
    check: Callable[[Mapping[str, float]], bool]
    claim: str


class _ReadLog(dict):
    """A metrics dict that records which names a gate read."""

    def __init__(self, metrics: Mapping[str, float]) -> None:
        super().__init__(metrics)
        self.names: List[str] = []

    def __getitem__(self, name: str) -> float:
        if name not in self.names:
            self.names.append(name)
        return super().__getitem__(name)


@dataclass(frozen=True)
class Experiment:
    """One experiment's record: its id and label, its runner, the keyword
    arguments of its quick run, and the gates its full-size run (the
    runner's defaults) must pass. Quick runs shrink workloads below the
    sizes the gates' shapes need, so they are not gated."""

    exp_id: str
    label: str
    runner: Callable[..., ExperimentResult]
    quick: Mapping[str, Any]
    gates: Tuple[Gate, ...]

    def run(self, quick: bool = False, **overrides: Any) -> ExperimentResult:
        kwargs = {**self.quick, **overrides} if quick else overrides
        return self.runner(**kwargs)

    def failed_gates(self, metrics: Mapping[str, float]) -> List[str]:
        """One message per gate ``metrics`` fails, naming the gate, the
        measured values it read and its claim."""
        failures = []
        for gate in self.gates:
            log = _ReadLog(metrics)
            try:
                if gate.check(log):
                    continue
                measured = ", ".join(f"{n} = {metrics[n]:.4g}" for n in log.names)
            except KeyError:
                measured = f"metric {log.names[-1]!r} missing"
            failures.append(
                f"{self.exp_id} {gate.name}: {measured}; expected {gate.claim}"
            )
        return failures


def sparkline(series: TimeSeries, width: int = 60) -> str:
    """Terminal-friendly rendering of a rate trace."""
    if series.empty:
        return "(empty)"
    t0, t1 = series.times[0], series.times[-1]
    if t1 <= t0:
        return "(single sample)"
    grid = [t0 + (t1 - t0) * i / (width - 1) for i in range(width)]
    values = [series.value_at(t) for t in grid]
    peak = max(values) or 1.0
    blocks = " ▁▂▃▄▅▆▇█"
    chars = [blocks[min(8, int(v / peak * 8.999))] for v in values]
    return "".join(chars)


def format_result(result: ExperimentResult) -> str:
    """Render an experiment for the terminal / EXPERIMENTS.md."""
    lines = [
        f"== {result.exp_id}: {result.title} ==",
        f"paper: {result.paper_claim}",
    ]
    if result.metrics:
        for name in sorted(result.metrics):
            lines.append(f"  {name} = {result.metrics[name]:.4g}")
    if result.table is not None:
        lines.append(result.table.render())
    for name, series in result.series.items():
        lines.append(f"  {name}: {sparkline(series)}")
    if result.trace_summary:
        bounds = result.trace_summary.get("bounds") or {}
        if bounds:
            top = sorted(
                bounds.items(), key=lambda kv: -kv[1]["sim_seconds"]
            )[:4]
            lines.append(
                "bottlenecks: "
                + ", ".join(
                    f"{bound} ({entry['flows']} flows, "
                    f"{entry['sim_seconds']:.3g} flow-s)"
                    for bound, entry in top
                )
            )
    if result.obs:
        for slo in result.obs.get("slo") or []:
            burn = slo.get("burn_rate")
            burn_s = f"{burn:.2f}x budget burn" if burn is not None else "zero budget"
            lines.append(
                f"slo {slo['name']}: "
                f"{'BREACHED' if slo['breached'] else 'ok'} "
                f"(compliance {slo['compliance'] * 100:.3f}% "
                f"vs target {slo['target'] * 100:g}%, {burn_s})"
            )
    if result.notes:
        lines.append(f"note: {result.notes}")
    return "\n".join(lines)
