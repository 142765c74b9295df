"""``python -m repro health`` — fleet health report over a metrics dir.

Reads the artifacts :func:`repro.obs.export.export_metrics_dir` wrote
(``<id>.metrics.jsonl`` time series, ``<id>.prom`` final snapshot,
``<id>.meta.json`` phases/SLO metadata) and renders, per experiment:

* the SLO table (objective, target, compliance, error-budget burn);
* per-phase read latency (p50/p99) and availability, when the
  experiment declared phases (E13's nominal/degraded/failed-over/
  recovered windows);
* fleet rollups: per-NSD-server bytes moved, per-client read latency
  percentiles, per-link peak utilization — each per universe (``sim``),
  so a sweep's points are never blended.

Output is deterministic text (and optionally a dependency-free static
HTML page via ``--html``): every figure is recomputed from the JSONL
rows with the same arithmetic the experiments used, so the report is
bit-identical across same-seed runs.
"""

from __future__ import annotations

import argparse
import html as _html
import json
import os
from typing import Dict, List, Optional

from repro.obs.metrics import Histogram, parse_key
from repro.obs.slo import phase_stats, universe_rows
from repro.obs.export import read_jsonl, validate_snapshot_row

#: Metric families the rollups read. Kept in one place so instrumentation
#: renames fail loudly here rather than silently emptying the report.
CLIENT_LATENCY = "client.read.latency"
CLIENT_OK = "client.read.ok"
CLIENT_ERR = "client.read.errors"
SERVER_BYTES = "nsd.server.bytes"
LINK_UTIL = "net.link.utilization"
CACHE_HITS = "cache.hits"
CACHE_MISSES = "cache.misses"
CACHE_HIT_RATIO = "cache.hit_ratio"
GATEWAY_OFFLOAD = "gateway.origin_offload"
GATEWAY_DIRTY = "gateway.dirty_queue"
POOL_HITS = "client.pagepool.hits"
POOL_MISSES = "client.pagepool.misses"
POOL_EVICTIONS = "client.pagepool.evictions"
MANAGER_DOWN = "tokens.manager_down"
TAKEOVER_LATENCY = "tokens.takeover_latency"
TAKEOVER_MTTR = "tokens.takeover_mttr"
DETECTION_LATENCY = "faults.detection_latency"
FAULT_MTTR = "faults.mttr"
FLOW_ACTIVE = "flow.active"
FLOW_RECOMPUTES = "flow.recomputes"
SOLVED_ROWS = "fairshare.solved_rows"
CLASSES = "flowengine.classes"
CLASS_COLS = "fairshare.class_cols"
AGG_RATIO = "flowengine.aggregation_ratio"


def load_experiment(metrics_dir: str, exp_id: str) -> dict:
    """Load one experiment's artifacts (meta optional, rows required)."""
    jsonl = os.path.join(metrics_dir, f"{exp_id}.metrics.jsonl")
    rows = read_jsonl(jsonl)
    for row in rows:
        validate_snapshot_row(row)
    meta: dict = {}
    meta_path = os.path.join(metrics_dir, f"{exp_id}.meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            meta = json.load(fh)
    return {"exp_id": exp_id, "rows": rows, "meta": meta}


def discover(metrics_dir: str) -> List[str]:
    ids = [
        f[: -len(".metrics.jsonl")]
        for f in os.listdir(metrics_dir)
        if f.endswith(".metrics.jsonl")
    ]
    return sorted(ids)


# -- rollups -----------------------------------------------------------------


def _fmt_ms(v: Optional[float]) -> str:
    return "-" if v is None else f"{v * 1e3:.2f} ms"


def _fmt_pct(v: Optional[float]) -> str:
    return "-" if v is None else f"{v * 100:.3f}%"


def _fmt_burn(v: Optional[float]) -> str:
    return "-" if v is None else f"{v:.2f}x"


def _final_rollup(
    rows: List[dict], fields: Dict[str, str], by: str = "sim"
) -> List[dict]:
    """The final scrape grouped per universe and ``by`` label.

    ``fields`` maps each family read to the field it fills; a field may
    name a label in braces (``"bytes_{dir}"``). Counters and gauges sum
    into their field, histograms merge. One dict per group, ``{"sim":
    ..., by: ..., field: value, ...}``, in universe order: a sweep that
    reuses client, server and gateway names gets a row per point.
    """
    if not rows:
        return []
    last = rows[-1]
    groups: Dict[tuple, dict] = {}
    for table in ("counters", "gauges", "histograms"):
        for key in sorted(last.get(table, {})):
            family, labels = parse_key(key)
            field = fields.get(family)
            if field is None:
                continue
            sim, name = labels["sim"], labels.get(by, "-")
            group = groups.setdefault((int(sim), name), {"sim": sim, by: name})
            field = field.format_map(labels)
            value = last[table][key]
            if table != "histograms":
                group[field] = group.get(field, 0.0) + value
            elif field in group:
                group[field].merge(Histogram.from_dict(value))
            else:
                group[field] = Histogram.from_dict(value)
    return [groups[k] for k in sorted(groups)]


def client_rollup(rows: List[dict]) -> List[dict]:
    """Per-client read latency percentiles from the final scrape."""
    out = []
    for g in _final_rollup(rows, {CLIENT_LATENCY: "latency"}, by="client"):
        h = g["latency"]
        if h.count:
            out.append({
                "sim": g["sim"],
                "client": g["client"],
                "reads": h.count,
                "p50": h.quantile(0.50),
                "p99": h.quantile(0.99),
                "max": h.max,
            })
    return out


def server_rollup(rows: List[dict]) -> List[dict]:
    """Per-NSD-server bytes in/out from the final scrape."""
    return [
        {"bytes_in": 0.0, "bytes_out": 0.0, **g}
        for g in _final_rollup(rows, {SERVER_BYTES: "bytes_{dir}"}, by="server")
    ]


def cache_rollup(rows: List[dict]) -> List[dict]:
    """Per-gateway cache effectiveness from the final scrape."""
    fields = {
        CACHE_HITS: "hits", CACHE_MISSES: "misses",
        CACHE_HIT_RATIO: "hit_ratio", GATEWAY_OFFLOAD: "offload",
        GATEWAY_DIRTY: "dirty",
    }
    return [
        {"hits": 0.0, "misses": 0.0, "hit_ratio": 0.0, "offload": 0.0,
         "dirty": 0.0, **g}
        for g in _final_rollup(rows, fields, by="gw")
    ]


def pagepool_rollup(rows: List[dict]) -> List[dict]:
    """Per-client page-pool behaviour from the final scrape."""
    fields = {POOL_HITS: "hits", POOL_MISSES: "misses", POOL_EVICTIONS: "evictions"}
    out = []
    for g in _final_rollup(rows, fields, by="client"):
        d = {"hits": 0.0, "misses": 0.0, "evictions": 0.0, **g}
        total = d["hits"] + d["misses"]
        d["hit_ratio"] = d["hits"] / total if total else 0.0
        out.append(d)
    return out


def control_plane_rollup(rows: List[dict]) -> List[dict]:
    """Fault/failover posture from the final scrape.

    One row per signal and universe: control-plane outages
    (``tokens.manager_down``), manager takeover latency and MTTR, and
    data-plane detection latency and node MTTR — present only for runs
    that armed the fault subsystem, so nominal experiments render no
    section at all. E16's riding fuzz cells get rows of their own.
    """
    histograms = (
        (TAKEOVER_LATENCY, "manager takeover latency"),
        (TAKEOVER_MTTR, "manager takeover MTTR"),
        (DETECTION_LATENCY, "crash detection latency"),
        (FAULT_MTTR, "node MTTR"),
    )
    groups = _final_rollup(
        rows, {MANAGER_DOWN: "downs", **{f: f for f, _ in histograms}}
    )
    out: List[dict] = [
        {"signal": "manager outages", "sim": g["sim"],
         "count": int(g["downs"]), "mean": None, "max": None}
        for g in groups if g.get("downs")
    ]
    for family, label in histograms:
        for g in groups:
            h = g.get(family)
            if h is not None and h.count:
                out.append({
                    "signal": label,
                    "sim": g["sim"],
                    "count": h.count,
                    "mean": h.sum / h.count,
                    "max": h.max,
                })
    return out


def solver_rollup(rows: List[dict]) -> List[dict]:
    """Rate-solver posture per engine from the final scrape.

    One row per simulation universe: active flows, live route classes,
    solver columns, the aggregation ratio (member flows per solver
    column — the dimension reduction route-class aggregation bought),
    and cumulative recompute work.
    """
    fields = {
        FLOW_ACTIVE: "active", CLASSES: "classes", CLASS_COLS: "cols",
        AGG_RATIO: "ratio", FLOW_RECOMPUTES: "recomputes",
        SOLVED_ROWS: "solved_rows",
    }
    return [
        {"active": 0.0, "classes": 0.0, "cols": 0.0, "ratio": 1.0,
         "recomputes": 0.0, "solved_rows": 0.0, **g}
        for g in _final_rollup(rows, fields)
    ]


def link_rollup(rows: List[dict]) -> List[dict]:
    """Per-link mean + peak utilization over the whole time series, per
    universe."""
    stats: Dict[tuple, List[float]] = {}
    for row in rows:
        for key, v in row.get("gauges", {}).items():
            family, labels = parse_key(key)
            if family == LINK_UTIL:
                link = (int(labels["sim"]), labels["link"])
                stats.setdefault(link, []).append(v)
    return [
        {
            "sim": str(sim),
            "link": link,
            "mean": sum(vals) / len(vals),
            "peak": max(vals),
            "samples": len(vals),
        }
        for (sim, link), vals in sorted(stats.items())
    ]


# -- text rendering ----------------------------------------------------------


def _table(headers: List[str], rows: List[List[str]], indent: str = "  ") -> List[str]:
    if not rows:
        return [indent + "(no data)"]
    widths = [
        max(len(headers[i]), max(len(r[i]) for r in rows))
        for i in range(len(headers))
    ]
    lines = [
        indent + "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        indent + "  ".join("-" * w for w in widths),
    ]
    for r in rows:
        lines.append(
            indent + "  ".join(c.ljust(widths[i]) for i, c in enumerate(r))
        )
    return lines


def _gb(v: float) -> str:
    return f"{v / 1e9:.2f} GB"


def render_experiment(exp: dict) -> List[str]:
    rows = exp["rows"]
    meta = exp["meta"]
    lines = [f"== {exp['exp_id']} =="]
    if rows:
        lines.append(
            f"  scrapes: {len(rows)}  sim time: "
            f"{rows[0]['t']:.2f}s .. {rows[-1]['t']:.2f}s"
        )

    slo = meta.get("slo") or []
    if slo:
        lines.append("")
        lines.append("  SLOs:")
        body = []
        for s in slo:
            body.append([
                s["name"],
                s["kind"],
                _fmt_pct(s["target"]),
                _fmt_pct(s["compliance"]),
                _fmt_burn(s["burn_rate"]),
                _fmt_burn(s["max_window_burn"]),
                "BREACHED" if s["breached"] else "ok",
            ])
        lines += _table(
            ["objective", "kind", "target", "compliance",
             "burn", "max window burn", "status"],
            body,
        )

    phases = meta.get("phases") or []
    if phases and rows:
        stats = phase_stats(
            universe_rows(rows, meta["sim"]), phases,
            CLIENT_LATENCY, CLIENT_OK, CLIENT_ERR,
        )
        lines.append("")
        lines.append("  Phases (client reads):")
        body = []
        for p in stats:
            body.append([
                p["name"],
                f"{p['t0']:.2f}-{p['t1']:.2f}s",
                str(p["reads"]),
                _fmt_ms(p["p50"]),
                _fmt_ms(p["p99"]),
                _fmt_pct(p["availability"]),
            ])
        lines += _table(
            ["phase", "window", "reads", "read p50", "read p99",
             "availability"],
            body,
        )

    clients = client_rollup(rows)
    if clients:
        lines.append("")
        lines.append("  Clients:")
        lines += _table(
            ["sim", "client", "reads", "p50", "p99", "max"],
            [
                [c["sim"], c["client"], str(c["reads"]), _fmt_ms(c["p50"]),
                 _fmt_ms(c["p99"]), _fmt_ms(c["max"])]
                for c in clients
            ],
        )

    servers = server_rollup(rows)
    if servers:
        lines.append("")
        lines.append("  NSD servers:")
        lines += _table(
            ["sim", "server", "bytes in", "bytes out"],
            [
                [s["sim"], s["server"], _gb(s["bytes_in"]), _gb(s["bytes_out"])]
                for s in servers
            ],
        )

    gateways = cache_rollup(rows)
    if gateways:
        lines.append("")
        lines.append("  Caching gateways:")
        lines += _table(
            ["sim", "gateway", "hits", "misses", "hit ratio",
             "origin offload", "dirty queue"],
            [
                [g["sim"], g["gw"], f"{g['hits']:.0f}", f"{g['misses']:.0f}",
                 _fmt_pct(g["hit_ratio"]), _fmt_pct(g["offload"]),
                 f"{g['dirty']:.0f}"]
                for g in gateways
            ],
        )

    pools = pagepool_rollup(rows)
    if pools:
        lines.append("")
        lines.append("  Client page pools:")
        lines += _table(
            ["sim", "client", "hits", "misses", "evictions", "hit ratio"],
            [
                [p["sim"], p["client"], f"{p['hits']:.0f}", f"{p['misses']:.0f}",
                 f"{p['evictions']:.0f}", _fmt_pct(p["hit_ratio"])]
                for p in pools
            ],
        )

    control = control_plane_rollup(rows)
    if control:
        lines.append("")
        lines.append("  Control plane / failures:")
        lines += _table(
            ["signal", "sim", "events", "mean", "max"],
            [
                [c["signal"], c["sim"], str(c["count"]),
                 "-" if c["mean"] is None else f"{c['mean'] * 1e3:.1f} ms",
                 "-" if c["max"] is None else f"{c['max'] * 1e3:.1f} ms"]
                for c in control
            ],
        )

    solver = solver_rollup(rows)
    if solver:
        lines.append("")
        lines.append("  Rate solver:")
        lines += _table(
            ["sim", "active flows", "classes", "solver cols",
             "agg ratio", "recomputes", "solved rows"],
            [
                [s["sim"], f"{s['active']:.0f}", f"{s['classes']:.0f}",
                 f"{s['cols']:.0f}", f"{s['ratio']:.1f}x",
                 f"{s['recomputes']:.0f}", f"{s['solved_rows']:.0f}"]
                for s in solver
            ],
        )

    links = link_rollup(rows)
    if links:
        lines.append("")
        lines.append("  Links:")
        lines += _table(
            ["sim", "link", "mean util", "peak util", "samples"],
            [
                [k["sim"], k["link"], _fmt_pct(k["mean"]), _fmt_pct(k["peak"]),
                 str(k["samples"])]
                for k in links
            ],
        )
    return lines


def render_report(metrics_dir: str, exp_ids: Optional[List[str]] = None) -> str:
    ids = exp_ids or discover(metrics_dir)
    if not ids:
        return f"no metrics found in {metrics_dir}\n"
    blocks = [f"repro fleet health — {len(ids)} experiment(s)", ""]
    for exp_id in ids:
        blocks += render_experiment(load_experiment(metrics_dir, exp_id))
        blocks.append("")
    return "\n".join(blocks)


def render_html(metrics_dir: str, exp_ids: Optional[List[str]] = None) -> str:
    """Static, dependency-free HTML version of the text report."""
    text = render_report(metrics_dir, exp_ids)
    return (
        "<!doctype html>\n<html><head><meta charset='utf-8'>"
        "<title>repro fleet health</title>"
        "<style>body{font-family:monospace;background:#111;color:#ddd;"
        "padding:2em}pre{line-height:1.4}</style>"
        "</head><body><pre>"
        + _html.escape(text)
        + "</pre></body></html>\n"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro health",
        description="Fleet health report over an exported --metrics-dir.",
    )
    parser.add_argument("--metrics-dir", required=True,
                        help="directory written by repro run/report --metrics-dir")
    parser.add_argument("--exp", action="append", default=None,
                        help="restrict to experiment id(s); default: all found")
    parser.add_argument("--out", default=None,
                        help="write the text report to this file (default stdout)")
    parser.add_argument("--html", default=None,
                        help="also write a static HTML report to this file")
    args = parser.parse_args(argv)

    if not os.path.isdir(args.metrics_dir):
        parser.error(f"not a directory: {args.metrics_dir}")
    report = render_report(args.metrics_dir, args.exp)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
    else:
        print(report, end="")
    if args.html:
        with open(args.html, "w") as fh:
            fh.write(render_html(args.metrics_dir, args.exp))
    return 0
