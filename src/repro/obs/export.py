"""Exporters and schema validators for the telemetry layer.

This is the repo's **one serialization path** for metrics-shaped data:

* :func:`to_prometheus` — Prometheus text exposition of a scrape row
  (cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count`` for
  histograms, plain samples for counters and gauges);
* :func:`write_jsonl` / :func:`read_jsonl` — the JSONL time series, one
  scrape row per line, schema :data:`~repro.obs.registry.SCHEMA`;
* :func:`export_metrics_dir` — everything an experiment emits into
  ``--metrics-dir``: ``<id>.prom``, ``<id>.metrics.jsonl``,
  ``<id>.meta.json``;
* :func:`trace_snapshot` — the summary dictionary that
  :meth:`repro.sim.trace.Tracer.metrics_snapshot` delegates to;
* :func:`profile_snapshot` — per-family counter totals over a registry
  reading, under the export's family names: what ``report --profile``
  prints and ``--profile-json`` writes;
* ``validate_*`` — structural checks mirrored by the checked-in schema
  document ``docs/schemas/metrics_v2.json`` (a test asserts the two
  stay in sync); CI runs them against the quick-report artifacts.

Everything serialized here is derived from sim-clock state only, so
output files are bit-identical across same-seed runs. ``json.dumps``
always gets ``sort_keys=True`` for the same reason.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional

from repro.obs.metrics import Histogram, parse_key
from repro.obs.registry import SCHEMA, MetricsRegistry

#: Structural schema for one JSONL scrape row, mirrored verbatim in
#: ``docs/schemas/metrics_v2.json`` (tests assert equality). Keys map to
#: required top-level fields and their JSON types; every counter, gauge
#: and histogram key carries the ``key_labels``.
SNAPSHOT_ROW_SCHEMA = {
    "schema": SCHEMA,
    "required": {
        "schema": "string",
        "kind": "string",
        "t": "number",
        "sim": "integer",
        "counters": "object",
        "gauges": "object",
        "histograms": "object",
    },
    "key_labels": ["sim"],
    "histogram": {
        "required": {
            "count": "integer",
            "sum": "number",
            "scheme": "string",
            "buckets": "object",
        },
    },
}


class SchemaError(ValueError):
    """An exported artifact does not match the repro.metrics/v2 schema."""


# -- prometheus text ---------------------------------------------------------


def _prom_name(family: str) -> str:
    """Metric family → Prometheus-legal name (dots become underscores)."""
    return "".join(
        c if c.isalnum() or c == "_" else "_" for c in family
    )


def _prom_labels(labels: Dict[str, str], extra: Optional[Dict[str, str]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{k}="{merged[k]}"' for k in sorted(merged))
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    """Compact deterministic number rendering (ints stay integral)."""
    f = float(value)
    return str(int(f)) if f.is_integer() and abs(f) < 1e15 else repr(f)


def to_prometheus(row: dict) -> str:
    """Render one scrape row as Prometheus text exposition format."""
    lines: List[str] = [
        f"# repro.metrics snapshot t={_fmt(row['t'])} sim={row['sim']}"
    ]
    typed: set = set()

    def header(family: str, kind: str) -> None:
        if family not in typed:
            typed.add(family)
            lines.append(f"# TYPE {_prom_name(family)} {kind}")

    for key in sorted(row.get("counters", {})):
        family, labels = parse_key(key)
        header(family, "counter")
        lines.append(
            f"{_prom_name(family)}{_prom_labels(labels)}"
            f" {_fmt(row['counters'][key])}"
        )
    for key in sorted(row.get("gauges", {})):
        family, labels = parse_key(key)
        header(family, "gauge")
        lines.append(
            f"{_prom_name(family)}{_prom_labels(labels)}"
            f" {_fmt(row['gauges'][key])}"
        )
    for key in sorted(row.get("histograms", {})):
        family, labels = parse_key(key)
        header(family, "histogram")
        h = Histogram.from_dict(row["histograms"][key])
        name = _prom_name(family)
        cum = 0
        for i, bound in enumerate(h.bounds):
            cum += h.counts[i]
            lines.append(
                f"{name}_bucket"
                f"{_prom_labels(labels, {'le': _fmt(bound)})} {cum}"
            )
        lines.append(
            f"{name}_bucket{_prom_labels(labels, {'le': '+Inf'})} {h.count}"
        )
        lines.append(f"{name}_sum{_prom_labels(labels)} {_fmt(h.sum)}")
        lines.append(f"{name}_count{_prom_labels(labels)} {h.count}")
    return "\n".join(lines) + "\n"


# -- jsonl time series -------------------------------------------------------


def dumps_row(row: dict) -> str:
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def write_jsonl(rows: Iterable[dict], path: str) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(dumps_row(row) + "\n")


def read_jsonl(path: str) -> List[dict]:
    rows: List[dict] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


# -- metrics-dir layout ------------------------------------------------------


def export_metrics_dir(
    registry: MetricsRegistry,
    out_dir: str,
    exp_id: str,
    meta: Optional[dict] = None,
) -> Dict[str, str]:
    """Write ``<id>.prom`` + ``<id>.metrics.jsonl`` + ``<id>.meta.json``.

    The ``.prom`` file is the *final* scrape (cumulative state at run
    end); the JSONL carries the whole time series; ``.meta.json`` holds
    experiment metadata (phases, SLO evaluations) for ``repro health``.
    Returns the paths written, keyed ``prom``/``jsonl``/``meta``.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "prom": os.path.join(out_dir, f"{exp_id}.prom"),
        "jsonl": os.path.join(out_dir, f"{exp_id}.metrics.jsonl"),
        "meta": os.path.join(out_dir, f"{exp_id}.meta.json"),
    }
    rows = registry.rows
    last = rows[-1] if rows else {
        "schema": SCHEMA, "kind": "scrape", "t": 0.0, "sim": 0,
        "counters": {}, "gauges": {}, "histograms": {},
    }
    with open(paths["prom"], "w") as fh:
        fh.write(to_prometheus(last))
    write_jsonl(rows, paths["jsonl"])
    doc = {"schema": SCHEMA, "kind": "meta", "exp_id": exp_id}
    doc.update(meta or {})
    with open(paths["meta"], "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return paths


# -- validators --------------------------------------------------------------


_JSON_TYPES = {
    "string": str,
    "number": (int, float),
    "integer": int,
    "object": dict,
}


def validate_snapshot_row(row: dict) -> None:
    """Raise :class:`SchemaError` unless ``row`` is a valid scrape row."""
    if not isinstance(row, dict):
        raise SchemaError(f"row is not an object: {type(row).__name__}")
    for field, typ in SNAPSHOT_ROW_SCHEMA["required"].items():
        if field not in row:
            raise SchemaError(f"scrape row missing field {field!r}")
        if not isinstance(row[field], _JSON_TYPES[typ]) or (
            typ == "number" and isinstance(row[field], bool)
        ):
            raise SchemaError(
                f"scrape row field {field!r}: expected {typ}, "
                f"got {type(row[field]).__name__}"
            )
    if row["schema"] != SCHEMA:
        raise SchemaError(f"unknown schema {row['schema']!r}")
    for table in ("counters", "gauges", "histograms"):
        for key in row[table]:
            labels = parse_key(key)[1]
            for label in SNAPSHOT_ROW_SCHEMA["key_labels"]:
                if label not in labels:
                    raise SchemaError(f"{table} key {key!r} has no {label!r} label")
    for key, hist in row["histograms"].items():
        for field, typ in SNAPSHOT_ROW_SCHEMA["histogram"]["required"].items():
            if field not in hist:
                raise SchemaError(f"histogram {key!r} missing field {field!r}")
            if not isinstance(hist[field], _JSON_TYPES[typ]):
                raise SchemaError(
                    f"histogram {key!r} field {field!r}: expected {typ}"
                )
        if sum(hist["buckets"].values()) != hist["count"]:
            raise SchemaError(
                f"histogram {key!r}: bucket counts do not sum to count"
            )


def validate_jsonl(path: str) -> int:
    """Validate every row of a JSONL file; returns the row count.

    Time must be monotone non-decreasing *per simulation* — sweep
    experiments (E8) interleave rows from many independent sim clocks.
    """
    rows = read_jsonl(path)
    t_prev: Dict[int, float] = {}
    for i, row in enumerate(rows):
        try:
            validate_snapshot_row(row)
        except SchemaError as exc:
            raise SchemaError(f"{path}:{i + 1}: {exc}") from None
        if row["t"] < t_prev.get(row["sim"], float("-inf")):
            raise SchemaError(f"{path}:{i + 1}: time went backwards")
        t_prev[row["sim"]] = row["t"]
    return len(rows)


def validate_prometheus(text: str) -> int:
    """Structural check of Prometheus text output; returns sample count.

    Checks: every non-comment line is ``name[{labels}] value``, every
    histogram family has ``_count``/``_sum``/``+Inf`` bucket, and bucket
    counts are monotone non-decreasing in ``le``.
    """
    samples = 0
    hist_state: Dict[str, int] = {}
    seen_inf: set = set()
    hist_families: set = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line or line.startswith("#"):
            if line.startswith("# TYPE ") and line.endswith(" histogram"):
                hist_families.add(line.split()[2])
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise SchemaError(f"prometheus line {lineno}: no value")
        try:
            float(value_part)
        except ValueError:
            raise SchemaError(
                f"prometheus line {lineno}: bad value {value_part!r}"
            ) from None
        samples += 1
        if "_bucket{" in name_part:
            series = name_part.split("{")[0][: -len("_bucket")]
            labels = name_part.split("{", 1)[1].rstrip("}")
            # The bucket series key is every label EXCEPT le: buckets of
            # one (family, labels) series must be monotone in le, but
            # differently-labeled series are independent.
            others = [p for p in labels.split(",") if not p.startswith('le="')]
            base = name_part.split("{")[0] + "{" + ",".join(others) + "}"
            if 'le="+Inf"' in labels:
                seen_inf.add(base)
            cum = int(float(value_part))
            prev = hist_state.get(base, 0)
            if cum < prev:
                raise SchemaError(
                    f"prometheus line {lineno}: non-monotone buckets "
                    f"for {series}"
                )
            hist_state[base] = cum
    for base in hist_state:
        if base not in seen_inf:
            raise SchemaError(f"histogram series {base!r} missing +Inf bucket")
    for family in hist_families:
        if not any(
            b.startswith(f"{family}_bucket{{") for b in hist_state
        ):
            raise SchemaError(f"histogram family {family!r} has no buckets")
    return samples


def validate_metrics_dir(path: str) -> Dict[str, dict]:
    """Validate every exported experiment in a ``--metrics-dir``.

    Returns ``{exp_id: {"rows": n, "samples": n}}``; raises
    :class:`SchemaError` on the first invalid artifact.
    """
    out: Dict[str, dict] = {}
    for fname in sorted(os.listdir(path)):
        if not fname.endswith(".metrics.jsonl"):
            continue
        exp_id = fname[: -len(".metrics.jsonl")]
        info = {"rows": validate_jsonl(os.path.join(path, fname))}
        prom = os.path.join(path, f"{exp_id}.prom")
        if os.path.exists(prom):
            with open(prom) as fh:
                info["samples"] = validate_prometheus(fh.read())
        meta = os.path.join(path, f"{exp_id}.meta.json")
        if os.path.exists(meta):
            with open(meta) as fh:
                doc = json.load(fh)
            if doc.get("schema") != SCHEMA or doc.get("kind") != "meta":
                raise SchemaError(f"{meta}: bad schema/kind")
        out[exp_id] = info
    if not out:
        raise SchemaError(f"no .metrics.jsonl files in {path}")
    return out


# -- trace / profile snapshots -----------------------------------------------
# trace_snapshot is the body of Tracer.metrics_snapshot, which only
# delegates, so every metrics-shaped JSON artifact in the repo is produced
# (and validated) here.


def trace_snapshot(tracer) -> dict:
    """Summary dict for a :class:`repro.sim.trace.Tracer`."""
    drained = sum(1 for r in tracer.flows if r.t_end is not None)
    return {
        "events": {
            "recorded": tracer.events_recorded,
            "buffered": len(tracer._events),
            "dropped": tracer.events_dropped,
            "open_spans": tracer.open_spans,
        },
        "spans_by_category": {
            cat: {"count": int(n), "sim_seconds": secs}
            for cat, (n, secs) in sorted(tracer._span_stats.items())
        },
        "flows": {
            "recorded": len(tracer.flows),
            "drained": drained,
            "dropped": tracer.flows_dropped,
        },
        "bounds": tracer.bound_summary(),
        "links": tracer.link_summary(),
    }


def profile_snapshot(registry: MetricsRegistry) -> dict:
    """``{"counters": {family: total}}``: each counter family of one
    registry reading summed over its label sets (every universe, server
    and client the run built)."""
    totals: Dict[str, float] = {}
    for key, value in registry.read()["counters"].items():
        family = parse_key(key)[0]
        totals[family] = totals.get(family, 0.0) + value
    return {"counters": dict(sorted(totals.items()))}


def validate_trace_snapshot(doc: dict) -> None:
    """Structural check of a trace metrics snapshot (CI artifact)."""
    for field in ("events", "spans_by_category", "flows", "bounds", "links"):
        if field not in doc:
            raise SchemaError(f"trace snapshot missing field {field!r}")
    for field in ("recorded", "buffered", "dropped", "open_spans"):
        if field not in doc["events"]:
            raise SchemaError(f"trace snapshot events missing {field!r}")


def validate_profile_snapshot(doc: dict) -> None:
    """Structural check of a profile snapshot (CI artifact)."""
    if set(doc) != {"counters"} or not isinstance(doc["counters"], dict):
        raise SchemaError("profile snapshot must be {'counters': {...}}")
    for family, total in doc["counters"].items():
        if "{" in family or not isinstance(total, (int, float)):
            raise SchemaError(
                f"profile counter {family!r}: want a family name and a number"
            )
