"""``python -m repro health`` — fleet health report over a metrics dir.

Reads the artifacts :func:`repro.obs.export.export_metrics_dir` wrote
(``<id>.metrics.jsonl`` time series, ``<id>.prom`` final snapshot,
``<id>.meta.json`` phases/SLO metadata) and renders, per experiment:

* the SLO table (objective, target, compliance, error-budget burn);
* per-phase read latency (p50/p99) and availability, when the
  experiment declared phases (E13's nominal/degraded/failed-over/
  recovered windows);
* fleet rollups: per-NSD-server bytes moved, per-client read latency
  percentiles, per-link peak utilization.

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
from repro.obs.slo import phase_stats
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


def _last_row(rows: List[dict]) -> Optional[dict]:
    return rows[-1] if rows else None


def _fmt_ms(v: Optional[float]) -> str:
    return "-" if v is None else f"{v * 1e3:.2f} ms"


def _fmt_pct(v: Optional[float]) -> str:
    return "-" if v is None else f"{v * 100:.3f}%"


def _fmt_burn(v: Optional[float]) -> str:
    return "-" if v is None else f"{v:.2f}x"


def client_rollup(rows: List[dict]) -> List[dict]:
    """Per-client read latency percentiles from the final scrape."""
    last = _last_row(rows)
    if last is None:
        return []
    out = []
    for key in sorted(last.get("histograms", {})):
        family, labels = parse_key(key)
        if family != CLIENT_LATENCY:
            continue
        h = Histogram.from_dict(last["histograms"][key])
        if h.count == 0:
            continue
        out.append({
            "client": labels.get("client", "-"),
            "reads": h.count,
            "p50": h.quantile(0.50),
            "p99": h.quantile(0.99),
            "max": h.max,
        })
    return out


def server_rollup(rows: List[dict]) -> List[dict]:
    """Per-NSD-server bytes in/out from the final scrape."""
    last = _last_row(rows)
    if last is None:
        return []
    per: Dict[str, Dict[str, float]] = {}
    for key, v in last.get("counters", {}).items():
        family, labels = parse_key(key)
        if family != SERVER_BYTES:
            continue
        server = labels.get("server", "-")
        per.setdefault(server, {"in": 0.0, "out": 0.0})
        per[server][labels.get("dir", "out")] = v
    return [
        {"server": s, "bytes_in": d["in"], "bytes_out": d["out"]}
        for s, d in sorted(per.items())
    ]


def cache_rollup(rows: List[dict]) -> List[dict]:
    """Per-gateway cache effectiveness from the final scrape."""
    last = _last_row(rows)
    if last is None:
        return []
    counters = last.get("counters", {})
    gauges = last.get("gauges", {})
    per: Dict[str, Dict[str, float]] = {}

    def bucket(labels: Dict[str, str]) -> Dict[str, float]:
        gw = labels.get("gw", "-")
        return per.setdefault(gw, {
            "hits": 0.0, "misses": 0.0, "hit_ratio": 0.0,
            "offload": 0.0, "dirty": 0.0,
        })

    for key, v in counters.items():
        family, labels = parse_key(key)
        if family == CACHE_HITS:
            bucket(labels)["hits"] = v
        elif family == CACHE_MISSES:
            bucket(labels)["misses"] = v
    for key, v in gauges.items():
        family, labels = parse_key(key)
        if family == CACHE_HIT_RATIO:
            bucket(labels)["hit_ratio"] = v
        elif family == GATEWAY_OFFLOAD:
            bucket(labels)["offload"] = v
        elif family == GATEWAY_DIRTY:
            bucket(labels)["dirty"] = v
    return [
        {"gw": gw, **d} for gw, d in sorted(per.items())
    ]


def pagepool_rollup(rows: List[dict]) -> List[dict]:
    """Per-client page-pool behaviour from the final scrape."""
    last = _last_row(rows)
    if last is None:
        return []
    per: Dict[str, Dict[str, float]] = {}
    for key, v in last.get("counters", {}).items():
        family, labels = parse_key(key)
        if family not in (POOL_HITS, POOL_MISSES, POOL_EVICTIONS):
            continue
        client = labels.get("client", "-")
        d = per.setdefault(
            client, {"hits": 0.0, "misses": 0.0, "evictions": 0.0}
        )
        attr = family.rsplit(".", 1)[1]
        d[attr] += v
    out = []
    for client, d in sorted(per.items()):
        total = d["hits"] + d["misses"]
        out.append({
            "client": client,
            **d,
            "hit_ratio": d["hits"] / total if total else 0.0,
        })
    return out


def control_plane_rollup(rows: List[dict]) -> List[dict]:
    """Fault/failover posture from the final scrape.

    One row per signal: control-plane outages (``tokens.manager_down``),
    manager takeover latency and MTTR, and data-plane detection latency
    and node MTTR — present only for runs that armed the fault subsystem,
    so nominal experiments render no section at all. The latency rows are
    per universe (``sim``): E16's riding fuzz cells get rows of their own.
    """
    last = _last_row(rows)
    if last is None:
        return []
    out: List[dict] = []
    downs = sum(
        v
        for key, v in last.get("counters", {}).items()
        if parse_key(key)[0] == MANAGER_DOWN
    )
    if downs:
        out.append({"signal": "manager outages", "sim": "-",
                    "count": int(downs), "mean": None, "max": None})
    for family, label in (
        (TAKEOVER_LATENCY, "manager takeover latency"),
        (TAKEOVER_MTTR, "manager takeover MTTR"),
        (DETECTION_LATENCY, "crash detection latency"),
        (FAULT_MTTR, "node MTTR"),
    ):
        for key in sorted(last.get("histograms", {})):
            key_family, labels = parse_key(key)
            if key_family != family:
                continue
            h = Histogram.from_dict(last["histograms"][key])
            if h.count == 0:
                continue
            out.append({
                "signal": label,
                "sim": labels.get("sim", "-"),
                "count": h.count,
                "mean": h.sum / h.count,
                "max": h.max,
            })
    return out


def solver_rollup(rows: List[dict]) -> List[dict]:
    """Rate-solver posture per engine from the final scrape.

    One row per simulation universe (``sim`` label): active flows, live
    route classes, solver columns, the aggregation ratio (member flows
    per solver column — the dimension reduction route-class aggregation
    bought), and cumulative recompute work.
    """
    last = _last_row(rows)
    if last is None:
        return []
    per: Dict[str, Dict[str, float]] = {}

    def bucket(labels: Dict[str, str]) -> Dict[str, float]:
        sim = labels.get("sim", "-")
        return per.setdefault(sim, {
            "active": 0.0, "classes": 0.0, "cols": 0.0,
            "ratio": 1.0, "recomputes": 0.0, "solved_rows": 0.0,
        })

    for key, v in last.get("gauges", {}).items():
        family, labels = parse_key(key)
        if family == FLOW_ACTIVE:
            bucket(labels)["active"] = v
        elif family == CLASSES:
            bucket(labels)["classes"] = v
        elif family == CLASS_COLS:
            bucket(labels)["cols"] = v
        elif family == AGG_RATIO:
            bucket(labels)["ratio"] = v
    for key, v in last.get("counters", {}).items():
        family, labels = parse_key(key)
        if family == FLOW_RECOMPUTES:
            bucket(labels)["recomputes"] = v
        elif family == SOLVED_ROWS:
            bucket(labels)["solved_rows"] = v
    return [{"sim": sim, **d} for sim, d in sorted(per.items())]


def link_rollup(rows: List[dict]) -> List[dict]:
    """Per-link mean + peak utilization over the whole time series."""
    stats: Dict[str, List[float]] = {}
    for row in rows:
        for key, v in row.get("gauges", {}).items():
            family, labels = parse_key(key)
            if family != LINK_UTIL:
                continue
            stats.setdefault(labels.get("link", "-"), []).append(v)
    return [
        {
            "link": link,
            "mean": sum(vals) / len(vals),
            "peak": max(vals),
            "samples": len(vals),
        }
        for link, vals in sorted(stats.items())
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
        stats = phase_stats(rows, phases, CLIENT_LATENCY, CLIENT_OK, CLIENT_ERR)
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
            ["client", "reads", "p50", "p99", "max"],
            [
                [c["client"], str(c["reads"]), _fmt_ms(c["p50"]),
                 _fmt_ms(c["p99"]), _fmt_ms(c["max"])]
                for c in clients
            ],
        )

    servers = server_rollup(rows)
    if servers:
        lines.append("")
        lines.append("  NSD servers:")
        lines += _table(
            ["server", "bytes in", "bytes out"],
            [
                [s["server"], _gb(s["bytes_in"]), _gb(s["bytes_out"])]
                for s in servers
            ],
        )

    gateways = cache_rollup(rows)
    if gateways:
        lines.append("")
        lines.append("  Caching gateways:")
        lines += _table(
            ["gateway", "hits", "misses", "hit ratio", "origin offload",
             "dirty queue"],
            [
                [g["gw"], f"{g['hits']:.0f}", f"{g['misses']:.0f}",
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
            ["client", "hits", "misses", "evictions", "hit ratio"],
            [
                [p["client"], f"{p['hits']:.0f}", f"{p['misses']:.0f}",
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
            ["link", "mean util", "peak util", "samples"],
            [
                [k["link"], _fmt_pct(k["mean"]), _fmt_pct(k["peak"]),
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
