"""Typed metric primitives: :class:`Counter`, :class:`Gauge`, :class:`Histogram`.

These are the values a :class:`~repro.obs.registry.MetricsRegistry` holds.
They are deliberately clock-free: each holds its current value, and the
registry's scrape pipeline (:mod:`repro.obs.collect`) turns current
values into a time series stamped with simulation time.

Histograms are **log-bucketed**: bucket ``i`` covers values in
``(bounds[i-1], bounds[i]]`` (Prometheus ``le`` semantics) with one
overflow bucket above the last bound. Bucket membership is decided by
``bisect`` over the precomputed bounds — never by ``log()`` arithmetic —
so boundary values land deterministically: an observation exactly equal
to a bound belongs to that bound's bucket.

Everything here is wall-clock-free and therefore bit-reproducible: two
runs with the same seed produce identical snapshots.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Optional, Sequence, Tuple


class MetricError(ValueError):
    """Metric misuse: type collisions, negative counter steps, bad bounds."""


#: Named bucket schemes. Exported snapshots reference a scheme by name
#: instead of shipping 40 floats per histogram per scrape; readers
#: (``repro.obs.health``) map the name back through this table.
BOUND_SCHEMES: Dict[str, Tuple[float, ...]] = {
    # 10 us .. ~91 hours in factor-2 steps: covers a cache-hit pread and
    # a tape recall on the same axis.
    "latency/v1": tuple(1e-5 * 2.0**i for i in range(35)),
}

DEFAULT_LATENCY_BOUNDS = BOUND_SCHEMES["latency/v1"]


def parse_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Split a canonical metric key into ``(family, labels)``.

    Inverse of :func:`canonical_key`:
    ``"nsd.rpc.total{op=read}"`` → ``("nsd.rpc.total", {"op": "read"})``.
    """
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels: Dict[str, str] = {}
    for part in rest[:-1].split(","):
        if part:
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


def canonical_key(name: str, labels: Optional[Dict[str, str]] = None) -> str:
    """Canonical registry key: ``name`` or ``name{k=v,...}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def counter_delta(prev: float, cur: float) -> float:
    """Increase of a cumulative counter between two scrapes.

    Reset-aware, like Prometheus ``rate()``: a value that went *down* means
    the counter was reset mid-window, so everything currently on it was
    accumulated since the reset.
    """
    return cur - prev if cur >= prev else cur


class Counter:
    """A monotonically increasing total (events, bytes, errors)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise MetricError(f"counter {self.name!r}: negative increment {n}")
        self.value += n

    def reset(self) -> None:
        """Start a new window at zero (scrape differencing handles the drop)."""
        self.value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name!r} {self.value}>"


class Gauge:
    """An instantaneous scalar: holds the last value set; scrapes make
    the series."""

    __slots__ = ("name", "_last")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._last: Optional[float] = None

    def set(self, value: float) -> None:
        self._last = float(value)

    @property
    def empty(self) -> bool:
        return self._last is None

    def last(self) -> float:
        if self._last is None:
            raise MetricError(f"gauge {self.name!r} never set")
        return self._last

    @property
    def value(self) -> float:
        return self.last()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name!r} {self._last}>"


class Histogram:
    """Log-bucketed distribution with exact count/sum/min/max.

    ``bounds`` are ascending bucket upper edges (``le``); observations
    above the last bound land in an overflow bucket whose effective upper
    edge for interpolation is the observed maximum.
    """

    __slots__ = ("name", "scheme", "bounds", "counts", "count", "sum",
                 "min", "max")

    def __init__(
        self,
        name: str = "",
        bounds: Optional[Sequence[float]] = None,
        scheme: str = "latency/v1",
    ) -> None:
        self.name = name
        if bounds is None:
            self.scheme = scheme
            bounds = BOUND_SCHEMES[scheme]
        else:
            self.scheme = "explicit"
            bounds = tuple(float(b) for b in bounds)
            if not bounds or any(
                b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
            ):
                raise MetricError(
                    f"histogram {name!r}: bounds must be non-empty and "
                    f"strictly ascending"
                )
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    @property
    def empty(self) -> bool:
        return self.count == 0

    def observe(self, value: float) -> None:
        """Record one observation (``value <= bounds[i]`` → bucket ``i``)."""
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram (bounds must match)."""
        if other.bounds != self.bounds:
            raise MetricError(
                f"cannot merge histograms with different bounds "
                f"({self.name!r} vs {other.name!r})"
            )
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.sum += other.sum
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
        return self

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1], interpolated within the bucket.

        Standard bucket interpolation: find the bucket holding rank
        ``q * count`` and interpolate linearly between its edges; the
        first bucket's lower edge is 0 and the overflow bucket's upper
        edge is the exact observed maximum. Results are clamped to the
        exact ``[min, max]`` observed.
        """
        if self.count == 0:
            raise MetricError(f"histogram {self.name!r} is empty")
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile {q} outside [0, 1]")
        rank = q * self.count
        cum = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if cum + n >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                frac = (rank - cum) / n
                value = lo + (hi - lo) * frac
                return min(self.max, max(self.min, value))
            cum += n
        return self.max

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def p999(self) -> float:
        return self.quantile(0.999)

    def mean(self) -> float:
        if self.count == 0:
            raise MetricError(f"histogram {self.name!r} is empty")
        return self.sum / self.count

    def count_le(self, threshold: float) -> int:
        """Observations known to be ``<= threshold``.

        Conservative at sub-bucket resolution: only buckets whose upper
        edge is ``<= threshold`` are counted, so an SLO threshold that
        falls mid-bucket never over-credits compliance.
        """
        total = 0
        for i, bound in enumerate(self.bounds):
            if bound > threshold:
                break
            total += self.counts[i]
        return total

    def to_dict(self) -> dict:
        """Sparse snapshot: per-bucket (non-cumulative) counts keyed by ``le``.

        The overflow bucket is keyed ``"+Inf"``. ``scheme`` names the
        bucket-bounds table (see :data:`BOUND_SCHEMES`); explicit bounds
        ride along so any snapshot is self-describing.
        """
        buckets = {
            str(self.bounds[i]): n
            for i, n in enumerate(self.counts[:-1])
            if n
        }
        if self.counts[-1]:
            buckets["+Inf"] = self.counts[-1]
        out = {
            "count": self.count,
            "sum": self.sum,
            "scheme": self.scheme,
            "buckets": buckets,
        }
        if self.count:
            out["min"] = self.min
            out["max"] = self.max
        if self.scheme == "explicit":
            out["bounds"] = list(self.bounds)
        return out

    @classmethod
    def from_dict(cls, d: dict, name: str = "") -> "Histogram":
        """Rebuild a histogram from :meth:`to_dict` output (for readers)."""
        scheme = d.get("scheme", "latency/v1")
        if scheme == "explicit":
            h = cls(name=name, bounds=d["bounds"])
        else:
            h = cls(name=name, scheme=scheme)
        edges = {str(b): i for i, b in enumerate(h.bounds)}
        for le, n in d.get("buckets", {}).items():
            idx = len(h.bounds) if le == "+Inf" else edges[le]
            h.counts[idx] += int(n)
        h.count = int(d.get("count", 0))
        h.sum = float(d.get("sum", 0.0))
        h.min = float(d.get("min", float("inf")))
        h.max = float(d.get("max", float("-inf")))
        return h

    @classmethod
    def delta(cls, prev: Optional[dict], cur: dict, name: str = "") -> "Histogram":
        """Histogram of observations made *between* two snapshots.

        ``prev=None`` means "since the beginning". min/max of a window are
        not recoverable from cumulative snapshots; the delta keeps the
        later snapshot's extremes, which bound the window's true extremes.
        """
        out = cls.from_dict(cur, name=name)
        if prev is not None:
            ref = cls.from_dict(prev)
            if ref.bounds == out.bounds:
                for i, n in enumerate(ref.counts):
                    out.counts[i] -= n
                out.count -= ref.count
                out.sum -= ref.sum
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Histogram {self.name!r} n={self.count}>"


def merge_histograms(hists: Iterable[Histogram], name: str = "") -> Histogram:
    """Merge several same-bounds histograms into a fresh one."""
    hists = list(hists)
    if not hists:
        return Histogram(name=name)
    out = Histogram(name=name, bounds=hists[0].bounds) \
        if hists[0].scheme == "explicit" else \
        Histogram(name=name, scheme=hists[0].scheme)
    for h in hists:
        out.merge(h)
    return out
