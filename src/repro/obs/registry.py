"""Process-wide metrics registry and the :data:`OBS` singleton.

The simulator's one counter registry. Mirrors the ``TRACE`` pattern
(`repro.sim.trace`): one module-level singleton, disabled by default, and
every hot call site guards with ``if OBS.enabled: ...`` so the disabled
cost is a single attribute check.

Metrics are keyed canonically as ``name`` or ``name{k=v,...}`` with
sorted labels (see :func:`repro.obs.metrics.canonical_key`). A metric
*family* (the name before the label braces) has exactly one kind —
registering ``foo`` as a counter and ``foo{op=read}`` as a histogram is
an error caught at registration time, not at export time.

Besides stored metrics, the registry accepts **callbacks**: zero-cost
reads of state the subsystems already maintain (kernel heap depth,
flow-engine counters, link utilization). Callbacks are only invoked at
scrape time, so instrumenting the kernel costs nothing per event.

:meth:`MetricsRegistry.read` returns the current value of every metric.
A scrape is that reading stamped as a row, ``{"t": sim.now, "counters":
..., "gauges": ..., "histograms": ...}``, accumulated in
``registry.rows`` and serialized by :mod:`repro.obs.export`;
``report --profile`` totals one reading per experiment instead. Nothing
here reads a wall clock; two runs with the same seed scrape
bit-identical rows.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    canonical_key,
)

SCHEMA = "repro.metrics/v1"


def _pid(sim) -> int:
    """Stable small integer for a Simulation (mirrors trace._pid)."""
    pid = getattr(sim, "_obs_pid", None)
    if pid is None:
        pid = _pid.counter = getattr(_pid, "counter", 0) + 1
        sim._obs_pid = pid
    return pid


class MetricsRegistry:
    """Holds every metric and produces deterministic scrape rows."""

    def __init__(self) -> None:
        self.enabled = False
        self.scrape_interval = 0.25
        self._metrics: Dict[str, object] = {}
        self._kinds: Dict[str, str] = {}
        self._callbacks: Dict[str, Tuple[Callable[[], float], str]] = {}
        self._multi_callbacks: List[Callable[[], dict]] = []
        self.rows: List[dict] = []
        self.meta: Dict[str, object] = {}

    # -- lifecycle ---------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all metrics, callbacks, and scrape rows (keep enabled flag).

        Experiments call this between runs so callbacks bound to a dead
        simulation can't leak into the next one's scrapes. The sim-id
        counter rewinds too: every run numbers its simulations from 1,
        so in-process back-to-back runs export the same bytes a fresh
        process would (the bit-identity contract).
        """
        self._metrics.clear()
        self._kinds.clear()
        self._callbacks.clear()
        self._multi_callbacks.clear()
        self.rows.clear()
        self.meta.clear()
        _pid.counter = 0

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

    def counter(self, name: str, **labels: str) -> Counter:
        # Kind is checked even on lookup: counter("m") after gauge("m")
        # must raise, never hand back the wrong type.
        self._check_kind(name, "counter")
        key = canonical_key(name, labels)
        m = self._metrics.get(key)
        if m is None:
            m = self._metrics[key] = Counter(name=key)
        return m

    def gauge(self, name: str, **labels: str) -> Gauge:
        self._check_kind(name, "gauge")
        key = canonical_key(name, labels)
        m = self._metrics.get(key)
        if m is None:
            m = self._metrics[key] = Gauge(name=key)
        return m

    def histogram(self, name: str, **labels: str) -> Histogram:
        self._check_kind(name, "histogram")
        key = canonical_key(name, labels)
        m = self._metrics.get(key)
        if m is None:
            m = self._metrics[key] = Histogram(name=key)
        return m

    def register_callback(
        self,
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
        key = canonical_key(name, labels)
        if key in self._callbacks or key in self._metrics:
            raise MetricError(f"metric {key!r} already registered")
        self._check_kind(name, kind)
        self._callbacks[key] = (fn, kind)

    def register_multi(self, fn: Callable[[], dict]) -> None:
        """Register a callback returning many values at once.

        ``fn()`` returns ``{"counters": {key: value}, "gauges": {key:
        value}}`` with already-canonical keys. Useful for dict-shaped
        state like per-link utilization where the key set varies between
        scrapes. Later registrations win on key collisions (documented
        so: multi callbacks are for namespaces a single subsystem owns).
        """
        self._multi_callbacks.append(fn)

    # -- hot-path conveniences --------------------------------------------
    # Call sites guard with `if OBS.enabled:` and then use these directly.

    def inc(self, name: str, n: float = 1.0, **labels: str) -> None:
        self.counter(name, **labels).inc(n)

    def observe(self, name: str, value: float, **labels: str) -> None:
        self.histogram(name, **labels).observe(value)

    def set_gauge(self, name: str, value: float, t: float, **labels: str) -> None:
        self.gauge(name, **labels).set(value, t)

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
                if m.samples:
                    gauges[key] = m.samples[-1][1]
            elif isinstance(m, Histogram):
                if m.count:
                    histograms[key] = m.to_dict()
        for key, (fn, kind) in self._callbacks.items():
            (counters if kind == "counter" else gauges)[key] = float(fn())
        for fn in self._multi_callbacks:
            out = fn()
            for key, v in out.get("counters", {}).items():
                counters[key] = float(v)
            for key, v in out.get("gauges", {}).items():
                gauges[key] = float(v)
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def scrape(self, sim) -> dict:
        """Snapshot every metric at ``sim.now`` and append a row."""
        row = {"schema": SCHEMA, "kind": "scrape", "t": sim.now, "sim": _pid(sim)}
        row.update(self.read())
        self.rows.append(row)
        return row

    def last_row(self) -> Optional[dict]:
        return self.rows[-1] if self.rows else None


#: The process-wide registry. Disabled by default; ``repro report
#: --metrics-dir`` / ``--profile`` and experiment wiring enable it.
OBS = MetricsRegistry()
