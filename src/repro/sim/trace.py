"""Simulation-clock flight recorder with bottleneck attribution.

The paper's §2 argument is about *bounds*: each NSD flow is limited by
something (TCP window/RTT, the Mathis loss cap, a saturated link, a server
NIC) and the client×server mesh keeps the union of bounds at line rate.
This module records those bounds — and the full NSD → network → storage
data path — as the simulation runs:

* **spans** — ``begin``/``end`` (or the ``span`` context manager) stamped
  with *simulation* time, carrying a category, a lane (rendered as a
  thread in trace viewers), and free-form attributes;
* **instant events** — point markers;
* **flow lifecycle records** — created / rate-changed / drained, where
  every rate change carries a *bound tag* saying what limited the flow at
  that moment (``window/rtt``, ``mathis-loss``, ``link:<name>``,
  ``peer-cap``, ``local``, or ``uncapped``);
* a **bounded ring buffer** — old span/instant events are evicted, never
  grown without limit; flow records are bounded separately.

Like the metrics registry :data:`repro.obs.OBS`, the recorder is a
process-wide singleton (:data:`TRACE`) that costs one attribute check per
call site when disabled, so instrumentation lives permanently in the data
path::

    from repro.sim.trace import TRACE

    TRACE.enable()
    ...                       # run the simulation
    TRACE.disable()
    json.dump(TRACE.to_chrome(), fh)       # load in Perfetto / chrome://tracing
    summary = TRACE.metrics_snapshot()     # attribution + span statistics

``python -m repro trace E8 --out t.json`` and
``python -m repro report --trace-dir DIR`` wrap whole experiments this way.

Span names follow the instrumented layer: the NSD service emits one
``nsd.write``/``nsd.read`` span per RPC, whether it carries one block or
a coalesced run (``max_coalesce > 1``), with a ``blocks=<n>`` attribute
so a trace shows both the RPC count and how many logical blocks each
round trip moved.

Timestamps are simulation seconds; the Chrome exporter scales to the
microseconds the trace-event format expects. Several simulations may run
while the recorder is enabled (parameter sweeps build one per cell); a
trace ``pid`` is the universe id :attr:`Simulation.id
<repro.sim.kernel.Simulation.id>` took at construction, the same number
the metrics exports carry as their ``sim`` label.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Default ring-buffer capacity (span + instant events).
DEFAULT_CAPACITY = 200_000
#: Default bound on retained flow lifecycle records.
DEFAULT_MAX_FLOWS = 100_000


class FlowRecord:
    """Lifecycle of one fluid flow: identity, rate history, bound tags."""

    __slots__ = (
        "rid", "pid", "seq", "src", "dst", "size", "tags",
        "t_start", "t_end", "history",
    )

    def __init__(self, rid: int, pid: int, seq: int, src: str, dst: str,
                 size: float, tags: Tuple[str, ...], t_start: float) -> None:
        self.rid = rid
        self.pid = pid
        self.seq = seq
        self.src = src
        self.dst = dst
        self.size = size
        self.tags = tags
        self.t_start = t_start
        self.t_end: Optional[float] = None
        #: ``(sim_time, rate_bytes_per_s, bound_tag)`` per rate change.
        self.history: List[Tuple[float, float, str]] = []

    def timeline(self) -> List[Tuple[float, float, float, str]]:
        """Attribution segments ``(t0, t1, rate, bound)`` over the flow's life.

        The final segment is closed at drain time when known, else at the
        last recorded change (an open flow contributes a zero-length tail).
        """
        segs: List[Tuple[float, float, float, str]] = []
        for i, (t, rate, bound) in enumerate(self.history):
            if i + 1 < len(self.history):
                t1 = self.history[i + 1][0]
            else:
                t1 = self.t_end if self.t_end is not None else t
            segs.append((t, t1, rate, bound))
        return segs

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "drained" if self.t_end is not None else "active"
        return (f"<FlowRecord {self.src}->{self.dst} {self.size:.3g}B "
                f"{state} {len(self.history)} rate changes>")


class Tracer:
    """The flight recorder: near-zero cost disabled, bounded when enabled.

    All recording methods take the owning simulation as the first argument
    and read its clock; callers must guard calls with ``if TRACE.enabled``
    (one attribute check) so the disabled hot path does no work at all.
    """

    __slots__ = (
        "enabled", "capacity", "max_flows",
        "_events", "events_recorded",
        "_open", "_next_sid", "_span_stats",
        "flows", "_live", "_next_rid", "flows_dropped",
        "instants_recorded",
    )

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 max_flows: int = DEFAULT_MAX_FLOWS) -> None:
        self.enabled = False
        self.capacity = capacity
        self.max_flows = max_flows
        self._reset_state()

    # -- control ------------------------------------------------------------

    def enable(self, capacity: Optional[int] = None,
               max_flows: Optional[int] = None) -> None:
        """Reset and start recording (``capacity`` bounds the ring buffer)."""
        if capacity is not None:
            if capacity < 1:
                raise ValueError("capacity must be >= 1")
            self.capacity = capacity
        if max_flows is not None:
            if max_flows < 1:
                raise ValueError("max_flows must be >= 1")
            self.max_flows = max_flows
        self._reset_state()
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self._reset_state()

    def _reset_state(self) -> None:
        #: ring of finished events: (ph, t0, dur, pid, lane, name, cat, args)
        self._events: deque = deque(maxlen=self.capacity)
        self.events_recorded = 0
        self.instants_recorded = 0
        self._open: Dict[int, tuple] = {}
        self._next_sid = 1
        #: category -> [span count, total sim-seconds]
        self._span_stats: Dict[str, List[float]] = {}
        #: completed + live flow records, insertion order.
        self.flows: List[FlowRecord] = []
        #: (pid, seq) -> live FlowRecord
        self._live: Dict[Tuple[int, int], FlowRecord] = {}
        self._next_rid = 1
        self.flows_dropped = 0

    # -- spans and instants --------------------------------------------------

    def begin(self, sim: Any, name: str, cat: str = "span",
              lane: str = "main", **args: Any) -> int:
        """Open a span at the simulation's current time; returns its id."""
        sid = self._next_sid
        self._next_sid += 1
        self._open[sid] = (name, cat, lane, sim.id, sim.now, args)
        return sid

    def end(self, sim: Any, sid: int, **args: Any) -> None:
        """Close span ``sid``; the finished span enters the ring buffer."""
        try:
            name, cat, lane, pid, t0, a0 = self._open.pop(sid)
        except KeyError:
            raise ValueError(f"span id {sid} is not open") from None
        if args:
            a0 = {**a0, **args}
        dur = sim.now - t0
        self._events.append(("X", t0, dur, pid, lane, name, cat, a0))
        self.events_recorded += 1
        stat = self._span_stats.get(cat)
        if stat is None:
            self._span_stats[cat] = [1, dur]
        else:
            stat[0] += 1
            stat[1] += dur

    @contextmanager
    def span(self, sim: Any, name: str, cat: str = "span",
             lane: str = "main", **args: Any) -> Iterator[None]:
        """Span around a ``with`` body (single-instant or non-yielding code).

        Generator processes that suspend across events must use explicit
        :meth:`begin`/:meth:`end` instead — a ``with`` block inside a
        generator would still work, but reads as if the span were local.
        """
        sid = self.begin(sim, name, cat=cat, lane=lane, **args)
        try:
            yield
        finally:
            self.end(sim, sid)

    def instant(self, sim: Any, name: str, cat: str = "event",
                lane: str = "main", **args: Any) -> None:
        """Record a point event at the simulation's current time."""
        self._events.append(
            ("i", sim.now, 0.0, sim.id, lane, name, cat, args)
        )
        self.events_recorded += 1
        self.instants_recorded += 1

    @property
    def events_dropped(self) -> int:
        """Events evicted from the ring buffer so far."""
        return self.events_recorded - len(self._events)

    @property
    def open_spans(self) -> int:
        return len(self._open)

    # -- flow lifecycle -------------------------------------------------------

    def flow_created(self, sim: Any, seq: int, src: str, dst: str,
                     size: float, tags: Tuple[str, ...]) -> None:
        if len(self.flows) >= self.max_flows:
            self.flows_dropped += 1
            return
        rec = FlowRecord(self._next_rid, sim.id, seq, src, dst, size, tags, sim.now)
        self._next_rid += 1
        self.flows.append(rec)
        self._live[(sim.id, seq)] = rec

    def flow_rate(self, sim: Any, seq: int, rate: float, bound: str) -> None:
        """Record a rate change with its bound tag (``window/rtt``, ...)."""
        rec = self._live.get((sim.id, seq))
        if rec is not None:
            rec.history.append((sim.now, rate, bound))

    def flow_drained(self, sim: Any, seq: int) -> None:
        rec = self._live.pop((sim.id, seq), None)
        if rec is not None:
            rec.t_end = sim.now

    # -- attribution summaries ------------------------------------------------

    def bound_summary(self) -> Dict[str, Dict[str, float]]:
        """Time-weighted attribution: bound tag -> flow count + sim-seconds."""
        out: Dict[str, Dict[str, float]] = {}
        for rec in self.flows:
            seen: set = set()
            for t0, t1, _rate, bound in rec.timeline():
                entry = out.setdefault(bound, {"flows": 0, "sim_seconds": 0.0})
                entry["sim_seconds"] += t1 - t0
                if bound not in seen:
                    entry["flows"] += 1
                    seen.add(bound)
        return out

    def link_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-link "who saturated me": link name -> flows + bound seconds."""
        out: Dict[str, Dict[str, float]] = {}
        for bound, entry in self.bound_summary().items():
            if bound.startswith("link:"):
                out[bound[len("link:"):]] = entry
        return out

    # -- exporters -------------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Plain-dict summary for JSON emission / ``ExperimentResult``.

        Delegates to :func:`repro.obs.export.trace_snapshot` — the one
        serialization path for metrics-shaped artifacts, validated by
        :func:`repro.obs.export.validate_trace_snapshot` in CI.
        """
        from repro.obs.export import trace_snapshot

        return trace_snapshot(self)

    def to_chrome(self) -> dict:
        """Chrome trace-event JSON (object form), loadable in Perfetto.

        Spans are ``"X"`` complete events on per-lane threads; flows are
        async (``"b"``/``"e"``) events whose child slices are named by the
        bound tag active over each attribution segment and carry its rate,
        so the viewer shows *what limited the flow, when, and how fast*.
        """
        events: List[dict] = []
        scale = 1e6  # sim seconds -> trace microseconds
        # Lane names become threads: (pid, lane) -> tid + metadata event.
        tids: Dict[Tuple[int, str], int] = {}

        def tid_of(pid: int, lane: str) -> int:
            tid = tids.get((pid, lane))
            if tid is None:
                tid = len(tids) + 1
                tids[(pid, lane)] = tid
                events.append({
                    "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                    "args": {"name": lane},
                })
            return tid

        for ph, t0, dur, pid, lane, name, cat, args in self._events:
            ev = {
                "ph": ph, "name": name, "cat": cat, "pid": pid,
                "tid": tid_of(pid, lane), "ts": t0 * scale,
            }
            if ph == "X":
                ev["dur"] = dur * scale
            else:
                ev["s"] = "t"
            if args:
                ev["args"] = dict(args)
            events.append(ev)

        for rec in self.flows:
            tid = tid_of(rec.pid, "flows")
            t_end = rec.t_end
            if t_end is None:
                t_end = rec.history[-1][0] if rec.history else rec.t_start
            ident = f"flow-{rec.rid}"
            common = {"cat": "flow", "pid": rec.pid, "tid": tid, "id": ident}
            events.append({
                "ph": "b", "name": f"{rec.src}->{rec.dst}",
                "ts": rec.t_start * scale,
                "args": {"bytes": rec.size, "tags": list(rec.tags)},
                **common,
            })
            for t0, t1, rate, bound in rec.timeline():
                events.append({
                    "ph": "b", "name": bound, "ts": t0 * scale,
                    "args": {"rate_bytes_per_s": rate}, **common,
                })
                events.append({
                    "ph": "e", "name": bound, "ts": t1 * scale, **common,
                })
            events.append({
                "ph": "e", "name": f"{rec.src}->{rec.dst}",
                "ts": t_end * scale,
                "args": {"drained": rec.t_end is not None},
                **common,
            })

        events.sort(key=lambda e: (e.get("ts", -1.0), e["pid"]))
        return {"traceEvents": events, "displayTimeUnit": "ms"}


#: Process-wide default recorder. Library code records into this instance
#: (guarded by ``TRACE.enabled``); harnesses enable/export around a run.
TRACE = Tracer()
