"""Process-wide metrics registry and the :data:`OBS` singleton.

The simulator's one counter registry. Mirrors the ``TRACE`` pattern
(`repro.sim.trace`): one module-level singleton, disabled by default, and
every hot call site guards with ``if OBS.enabled: ...`` so the disabled
cost is a single attribute check.

Metrics are keyed canonically as ``name{k=v,...}`` with sorted labels
(see :func:`repro.obs.metrics.canonical_key`). Every method that names a
key takes the owning :class:`~repro.sim.kernel.Simulation` first and
stamps its universe id as the ``sim`` label, the same number a Chrome
trace uses as that universe's pid. No call site builds a ``sim`` label,
and none can omit one: a sweep that builds one scenario per point may
reuse server, client and link names without blending its points. A
metric *family* (the name before the label braces) has exactly one kind
— registering ``foo`` as a counter and ``foo{op=read}`` as a histogram
is an error caught at registration time, not at export time.

Besides stored metrics, the registry accepts **callbacks**: zero-cost
reads of state the subsystems already maintain (kernel heap depth,
flow-engine counters, link utilization). Callbacks are only invoked at
scrape time, so instrumenting the kernel costs nothing per event.

:meth:`MetricsRegistry.read` returns the current value of every metric.
A scrape is that reading stamped as a row, ``{"t": sim.now, "sim":
sim.id, "counters": ..., "gauges": ..., "histograms": ...}``,
accumulated in ``registry.rows`` and serialized by
:mod:`repro.obs.export`; ``report --profile`` totals one reading per
experiment instead. Nothing here reads a wall clock; two runs with the
same seed scrape bit-identical rows.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    canonical_key,
)
from repro.sim.kernel import rewind_universe_ids

SCHEMA = "repro.metrics/v2"


def _key(sim, name: str, labels: Dict[str, str]) -> str:
    """``name{...,sim=<id>}``: the one place a ``sim`` label is built."""
    labels["sim"] = str(sim.id)
    return canonical_key(name, labels)


class MetricsRegistry:
    """Holds every metric and produces deterministic scrape rows."""

    def __init__(self) -> None:
        self.enabled = False
        self.scrape_interval = 0.25
        self._metrics: Dict[str, object] = {}
        self._kinds: Dict[str, str] = {}
        self._callbacks: Dict[str, Tuple[Callable[[], float], str]] = {}
        self._multi_callbacks: List[tuple] = []
        self.rows: List[dict] = []

    # -- lifecycle ---------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all metrics, callbacks, and scrape rows (keep enabled flag).

        Experiments call this between runs so callbacks bound to a dead
        simulation can't leak into the next one's scrapes. The universe
        ids rewind too: every run numbers its simulations from 1, so
        in-process back-to-back runs export the same bytes a fresh
        process would (the bit-identity contract).
        """
        self._metrics.clear()
        self._kinds.clear()
        self._callbacks.clear()
        self._multi_callbacks.clear()
        self.rows.clear()
        rewind_universe_ids()

    # -- registration ------------------------------------------------------

    def _check_kind(self, name: str, kind: str) -> None:
        prev = self._kinds.get(name)
        if prev is None:
            self._kinds[name] = kind
        elif prev != kind:
            raise MetricError(
                f"metric family {name!r} already registered as {prev}, "
                f"cannot re-register as {kind}"
            )

    def _stored(self, kind: str, cls, sim, name: str, labels: Dict[str, str]):
        # Kind is checked even on lookup: counter("m") after gauge("m")
        # must raise, never hand back the wrong type.
        self._check_kind(name, kind)
        key = _key(sim, name, labels)
        m = self._metrics.get(key)
        if m is None:
            m = self._metrics[key] = cls(name=key)
        return m

    def counter(self, sim, name: str, **labels: str) -> Counter:
        return self._stored("counter", Counter, sim, name, labels)

    def gauge(self, sim, name: str, **labels: str) -> Gauge:
        return self._stored("gauge", Gauge, sim, name, labels)

    def histogram(self, sim, name: str, **labels: str) -> Histogram:
        return self._stored("histogram", Histogram, sim, name, labels)

    def register_callback(
        self,
        sim,
        name: str,
        fn: Callable[[], float],
        kind: str = "gauge",
        **labels: str,
    ) -> None:
        """Register a scrape-time read of existing state.

        ``kind`` is ``"gauge"`` (instantaneous) or ``"counter"``
        (cumulative, still read via ``fn``). Registering the same key
        twice is an error — it would silently shadow a subsystem.
        """
        if kind not in ("gauge", "counter"):
            raise MetricError(f"callback kind must be gauge|counter, got {kind!r}")
        key = _key(sim, name, labels)
        if key in self._callbacks or key in self._metrics:
            raise MetricError(f"metric {key!r} already registered")
        self._check_kind(name, kind)
        self._callbacks[key] = (fn, kind)

    def register_multi(
        self,
        sim,
        name: str,
        fn: Callable[[], Dict[str, float]],
        label: str,
        kind: str = "gauge",
    ) -> None:
        """Register a callback returning one value per ``label`` value.

        ``fn()`` returns ``{label_value: value}``; its key set may vary
        between scrapes (per-link utilization lists the links in use).
        """
        self._check_kind(name, kind)
        self._multi_callbacks.append((sim, name, fn, label, kind))

    # -- hot-path conveniences --------------------------------------------
    # Call sites guard with `if OBS.enabled:` and then use these directly.

    def inc(self, sim, name: str, n: float = 1.0, **labels: str) -> None:
        self.counter(sim, name, **labels).inc(n)

    def observe(self, sim, name: str, value: float, **labels: str) -> None:
        self.histogram(sim, name, **labels).observe(value)

    def set_gauge(self, sim, name: str, value: float, **labels: str) -> None:
        self.gauge(sim, name, **labels).set(value)

    # -- scraping ----------------------------------------------------------

    def read(self) -> dict:
        """Current value of every metric: ``{"counters", "gauges",
        "histograms"}``, each keyed canonically. Appends no row."""
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, dict] = {}
        for key, m in self._metrics.items():
            if isinstance(m, Counter):
                counters[key] = m.value
            elif isinstance(m, Gauge):
                if not m.empty:
                    gauges[key] = m.value
            elif isinstance(m, Histogram):
                if m.count:
                    histograms[key] = m.to_dict()
        for key, (fn, kind) in self._callbacks.items():
            (counters if kind == "counter" else gauges)[key] = float(fn())
        for sim, name, fn, label, kind in self._multi_callbacks:
            table = counters if kind == "counter" else gauges
            for value_of, v in fn().items():
                table[_key(sim, name, {label: value_of})] = float(v)
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def scrape(self, sim) -> dict:
        """Snapshot every metric at ``sim.now`` and append a row."""
        row = {"schema": SCHEMA, "kind": "scrape", "t": sim.now, "sim": sim.id}
        row.update(self.read())
        self.rows.append(row)
        return row


#: The process-wide registry. Disabled by default; ``repro report
#: --metrics-dir`` / ``--profile`` and experiment wiring enable it.
OBS = MetricsRegistry()
