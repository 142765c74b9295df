"""Unified telemetry: metrics registry, scrape pipeline, SLOs, health.

The observability layer the paper's measurement story implies: the
simulator's one counter registry. Every counter is an attribute of the
object that does the work (kernel, flow engine, solver, NSD service,
clients, gateways) and is read only through :data:`OBS`; span tracing
stays with :data:`repro.sim.trace.TRACE`.

* :mod:`repro.obs.metrics` — Counter / Gauge / Histogram primitives
  (log-bucketed latency histograms with p50/p95/p99/p999);
* :mod:`repro.obs.registry` — the process-wide :data:`OBS` registry
  (disabled by default; one attribute check on the hot path);
* :mod:`repro.obs.collect` — sim-clock scrape collector;
* :mod:`repro.obs.export` — Prometheus-text + JSONL exporters, schema
  validators, the trace snapshot serializer, and the per-family counter
  totals behind ``report --profile``;
* :mod:`repro.obs.slo` — latency/availability objectives with
  error-budget burn rates over sliding sim-time windows;
* :mod:`repro.obs.health` — ``python -m repro health`` fleet report;
* :mod:`repro.obs.wire` — attachment of kernel and flow engine (every
  ``FlowEngine`` attaches itself), NSD services, tokens, scrub, HSM,
  pagepools, gateways, and fault detectors.

Everything is derived from sim-clock state only: same seed, same bytes.
"""

from repro.obs.metrics import (
    BOUND_SCHEMES,
    DEFAULT_LATENCY_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    canonical_key,
    counter_delta,
    merge_histograms,
    parse_key,
)
from repro.obs.collect import Collector, start_collector
from repro.obs.export import (
    SchemaError,
    export_metrics_dir,
    profile_snapshot,
    read_jsonl,
    to_prometheus,
    validate_jsonl,
    validate_metrics_dir,
    validate_prometheus,
    validate_snapshot_row,
    write_jsonl,
)
from repro.obs.registry import OBS, SCHEMA, MetricsRegistry
from repro.obs.slo import (
    AvailabilityObjective,
    LatencyObjective,
    SloTracker,
    universe_rows,
)

__all__ = [
    "Collector",
    "SchemaError",
    "export_metrics_dir",
    "profile_snapshot",
    "read_jsonl",
    "start_collector",
    "to_prometheus",
    "validate_jsonl",
    "validate_metrics_dir",
    "validate_prometheus",
    "validate_snapshot_row",
    "write_jsonl",
    "BOUND_SCHEMES",
    "DEFAULT_LATENCY_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "OBS",
    "SCHEMA",
    "AvailabilityObjective",
    "LatencyObjective",
    "SloTracker",
    "universe_rows",
    "canonical_key",
    "counter_delta",
    "merge_histograms",
    "parse_key",
]
