"""Fluid flows and the flow engine.

A :class:`Flow` is ``nbytes`` moving along a routed path. The
:class:`FlowEngine` keeps the set of active flows; whenever it changes, it
re-solves max-min fair rates with each flow capped by its TCP model,
advances residual bytes, and schedules the next completion. Changes within
one simulation instant coalesce into a single re-solve.

The re-solve is *incremental* end-to-end (see
:class:`repro.net.fairshare.FairshareState`): flows live in an
insertion-ordered registry (insertion order == seq order, so nothing is
ever re-sorted), an arrival/departure re-solves only the connected
component of the link-sharing graph it touches, and per-flow kinematics
(residual bytes, predicted finish time) are slot-aligned numpy arrays:
residuals advance lazily and vectorized for exactly the flows whose rate
changed, completions are detected by one vectorized compare against the
predicted-finish array, and the next-completion timer is its minimum —
no per-flow Python loop survives on the per-event path.

Route-class aggregation
-----------------------

The NSD mesh is symmetric: N clients reading from M servers produce N·M
flows but only as many *distinct* (link-incidence column, TCP cap) pairs
as there are route classes — and flows in the same class provably receive
identical max-min rates. The engine therefore solves in class space by
default (``aggregate=True``): each distinct ``(path_ids, cap)`` key owns
one :class:`~repro.net.fairshare.FairshareState` column whose weight is
the class's member count, a repeat transfer *joins* the class (a weight
bump — no path-table or union-find churn), a completion *leaves* it, and
a class whose last member left is parked at weight 0 (kept registered
for cheap rejoin, bounded by an LRU evict). Solver dimension drops from
O(flows) to O(classes).

Per-flow accounting stays exact: every flow owns an engine-level *slot*
(kinematics arrays + its entry in tag indexes), and a slot → column
array lets one gather of the column rates, after a solve that moved a
column or followed a join, find every live slot whose rate differs. The
slot allocator reuses the solver's exact LIFO/doubling discipline so
slot numbering — and therefore every order-sensitive float sum over
slots — is identical whether the engine aggregates or not. Combined with
the solver's drain, which groups fixed demand by rate so that ``w``
members and one weight-``w`` class perform the same float operations
(see ``fairshare``'s module docstring), ``aggregate=True`` and
``aggregate=False`` produce bit-identical per-flow rate series, byte
accounting, and tag series; the flag is the test oracle, not a
tolerance.

Tags: each transfer may carry string tags ("wan", "sdsc->ncsa", ...); the
engine maintains an exact piecewise-constant aggregate-rate series per tag —
this is what the figure harnesses plot (e.g. the three SCinet link traces of
Fig 8). Each tag keeps an incrementally maintained slot-index array
(append on add, swap-delete on finish), so a snapshot is one vectorized
gather-sum per tag with no per-change rebuild.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.net import fairshare
from repro.net.fairshare import FairshareState
from repro.net.tcp import TcpModel
from repro.net.topology import Network
from repro.obs.registry import OBS
from repro.sim.kernel import Event, Simulation
from repro.sim.trace import TRACE
from repro.util.timeseries import TimeSeries
from repro.util.units import GB

#: A flow within this many seconds of its predicted drain counts as done
#: (guards float drift in time arithmetic).
_DONE_EPS_SECONDS = 1e-9

#: Residual bytes below this *fraction of the flow's size* count as fully
#: delivered (guards float drift in byte arithmetic). Relative on purpose:
#: the old absolute 1e-6-byte floor silently finished sub-microbyte flows
#: before they ever carried a byte.
_DONE_EPS_FRACTION = 1e-12

#: Relative slack when attributing a flow's bound: a rate within this of
#: the flow's cap counts as cap-limited; a link within this of full counts
#: as saturated.
_ATTR_EPS = 1e-6

#: Weight-0 (memberless) route classes kept parked for cheap rejoin before
#: the least-recently-parked one is evicted from the solver.
_MAX_PARKED_CLASSES = 256


def _cap_kind(
    tcp: TcpModel, rtt: float, peer_cap: Optional[float],
    has_path: bool, local_rate: float,
) -> str:
    """Which term of the flow's rate cap is binding (bound attribution).

    Candidates mirror :meth:`FlowEngine.transfer`'s cap arithmetic: the
    TCP window limit, the Mathis loss limit, an explicit per-pair cap, and
    the loopback rate for pathless flows. Only evaluated when tracing is
    enabled — the disabled hot path never calls this.
    """
    candidates = [
        (tcp.efficiency * tcp.window_cap(rtt), "window/rtt"),
        (tcp.efficiency * tcp.mathis_cap(rtt), "mathis-loss"),
    ]
    if peer_cap is not None:
        candidates.append((peer_cap, "peer-cap"))
    if not has_path:
        candidates.append((local_rate, "local"))
    return min(candidates, key=lambda c: c[0])[1]


class Flow:
    """One in-flight transfer.

    While in flight, the engine tracks the flow's rate and residual bytes
    in slot-aligned arrays (``flow.slot`` indexes them); the ``rate`` and
    ``remaining`` attributes here are materialized when the flow finishes.
    Use :meth:`FlowEngine.flow_rate` for a mid-flight reading.
    """

    __slots__ = (
        "src",
        "dst",
        "size",
        "remaining",
        "rate",
        "cap",
        "path_ids",
        "one_way_delay",
        "tags",
        "done",
        "start_time",
        "seq",
        "slot",
        "cap_kind",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        size: float,
        cap: float,
        path_ids: Tuple[int, ...],
        one_way_delay: float,
        tags: tuple[str, ...],
        done: Event,
        now: float,
    ) -> None:
        self.src = src
        self.dst = dst
        self.size = float(size)
        self.remaining = float(size)
        self.rate = 0.0
        self.cap = cap
        #: The network's cached link-id tuple, shared by every flow
        #: between the same two hosts.
        self.path_ids = path_ids
        self.one_way_delay = one_way_delay
        self.tags = tags
        self.done = done
        self.start_time = now
        self.seq = -1  # assigned by the engine for deterministic ordering
        self.slot = -1  # kinematics slot in the engine's arrays
        self.cap_kind: Optional[str] = None  # which cap term binds (tracing)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Flow {self.src}->{self.dst} {self.remaining:.3g}/{self.size:.3g}B "
            f"@{self.rate:.3g}B/s>"
        )


class _TagIndex:
    """Incrementally maintained array of the slots carrying one tag.

    Append on add; swap-with-last on remove. The array order (insertion
    order perturbed by deterministic swap-deletes) is a pure function of
    the add/remove sequence, so the order-sensitive float sum in
    ``_snapshot_tags`` associates identically across engine modes.
    """

    __slots__ = ("arr", "n", "pos")

    def __init__(self) -> None:
        self.arr = np.empty(8, dtype=np.intp)
        self.n = 0
        self.pos: Dict[int, int] = {}

    def add(self, slot: int) -> None:
        if self.n == self.arr.shape[0]:
            arr = np.empty(2 * self.n, dtype=np.intp)
            arr[: self.n] = self.arr
            self.arr = arr
        self.arr[self.n] = slot
        self.pos[slot] = self.n
        self.n += 1

    def remove(self, slot: int) -> None:
        j = self.pos.pop(slot)
        last = self.n - 1
        if j != last:
            moved = self.arr[last]
            self.arr[j] = moved
            self.pos[int(moved)] = j
        self.n = last

    def view(self) -> np.ndarray:
        return self.arr[: self.n]


class FlowEngine:
    """Shared-bandwidth transfer service over one :class:`Network`."""

    def __init__(
        self,
        sim: Simulation,
        network: Network,
        local_rate: float = GB(2.0),
        default_tcp: Optional[TcpModel] = None,
        aggregate: bool = True,
    ) -> None:
        """``local_rate`` bounds same-node (loopback/memory) transfers.

        ``aggregate=False`` disables route-class aggregation (one solver
        column per flow) — an escape hatch and the reference half of the
        bit-identity property tests; results are identical either way.
        """
        if local_rate <= 0:
            raise ValueError("local_rate must be positive")
        self.sim = sim
        self.network = network
        self.local_rate = local_rate
        self.default_tcp = default_tcp or TcpModel()
        self.aggregate = aggregate
        #: Insertion-ordered registry (dict-as-ordered-set): iteration order
        #: is seq order, so nothing ever needs re-sorting.
        self.flows: Dict[Flow, None] = {}
        self.bytes_moved = 0.0
        self.completed_flows = 0
        #: Always-on solver-churn counters, scraped by repro.obs.
        #: ``active_rows`` sums the flows each recompute saw (what a
        #: non-incremental engine would re-solve); ``rate_changes`` counts
        #: member flows whose rate moved (mode-independent).
        self.recomputes = 0
        self.active_rows = 0
        self.rate_changes = 0
        #: Route-class registry health: transfers absorbed by a weight
        #: bump on an existing class (no solver-column churn).
        self.class_joins = 0
        self._state = FairshareState(network.link_capacities())
        #: (path_ids, cap) key -> the class's solver column, whose weight
        #: is its member count; unaggregated engines key by flow seq so
        #: classes never merge and park nothing.
        self._classes: Dict[object, int] = {}
        #: Parked (weight-0) class keys in LRU order -> column.
        self._parked: Dict[object, int] = {}
        #: Classes with live members (== solver columns doing work).
        self.live_classes = 0
        # Slot-aligned kinematics, grown on demand. A slot's residual is
        # exact as of _last_t[slot]; the rate has been constant since, so
        # the live residual at t is _rem[slot] - rate * (t - _last_t[slot])
        # and the predicted finish time _finish[slot] is exact (inf =
        # inactive or not yet rated). The allocator mirrors the solver's
        # LIFO/doubling column discipline so slot numbering is identical
        # across aggregate modes (see the module docstring).
        cap = self._state.capacity
        self._rem = np.zeros(cap)
        self._last_t = np.zeros(cap)
        self._fsize = np.zeros(cap)
        self._finish = np.full(cap, np.inf)
        self._slot_rate = np.zeros(cap)
        #: Each slot's solver column; -1 for a free slot.
        self._slot_col = np.full(cap, -1, dtype=np.intp)
        self._slot_flow: Dict[int, Flow] = {}
        self._free_slots: List[int] = list(range(cap - 1, -1, -1))
        #: A transfer joined since the last recompute: its slot needs
        #: rating even if its column's rate did not move.
        self._joined = False
        self._tag_series: Dict[str, TimeSeries] = {}
        self._tag_idx: Dict[str, _TagIndex] = {}
        self._recompute_pending = False
        self._timer_token = 0
        self._next_seq = 0
        network.subscribe_rate_changes(self._on_link_rate_change)
        if OBS.enabled:
            from repro.obs.wire import attach_engine

            attach_engine(self)

    # -- public API -----------------------------------------------------------

    def transfer(
        self,
        src: str,
        dst: str,
        nbytes: float,
        tcp: Optional[TcpModel] = None,
        cap: Optional[float] = None,
        tags: Iterable[str] = (),
    ) -> Event:
        """Start moving ``nbytes`` from ``src`` to ``dst``.

        Returns an event that fires (with the :class:`Flow`) when the last
        byte *arrives* at ``dst`` — i.e. after the path drains plus one-way
        propagation delay. A NaN, infinite or negative ``nbytes``, or a
        ``cap`` not above 0 (NaN included), raises ``ValueError`` before
        anything changes.
        """
        if not 0 <= nbytes < math.inf:
            raise ValueError(f"transfer {src}->{dst}: nbytes must be finite and "
                             f"non-negative, got {nbytes}")
        if cap is not None and not cap > 0:
            raise ValueError(f"transfer {src}->{dst}: cap must be positive, got {cap}")
        tcp = tcp or self.default_tcp
        path_ids = self.network.path_ids(src, dst)
        delay = self.network.one_way_delay(src, dst)
        rtt = self.network.rtt(src, dst) if path_ids else 0.0
        flow_cap = tcp.rate_cap(rtt)
        if cap is not None:
            flow_cap = min(flow_cap, cap)
        if not path_ids:
            flow_cap = min(flow_cap, self.local_rate)
        done = self.sim.event(name=f"xfer:{src}->{dst}")
        now = self.sim.now
        flow = Flow(
            src,
            dst,
            nbytes,
            flow_cap,
            path_ids,
            delay,
            tuple(tags),
            done,
            now,
        )
        flow.seq = self._next_seq
        self._next_seq += 1
        if nbytes == 0:
            return done.succeed_after(delay, flow)
        if TRACE.enabled:
            flow.cap_kind = _cap_kind(tcp, rtt, cap, bool(path_ids), self.local_rate)
            TRACE.flow_created(self.sim, flow.seq, src, dst, nbytes, flow.tags)
        self.flows[flow] = None
        slot = flow.slot = self._alloc_slot()
        self._slot_flow[slot] = flow
        self._rem[slot] = nbytes
        self._last_t[slot] = now
        self._fsize[slot] = nbytes
        self._finish[slot] = np.inf
        self._slot_rate[slot] = 0.0
        self._slot_col[slot] = self._join_class(flow)
        self._joined = True
        for tag in flow.tags:
            self.tag_rate_series(tag)
            idx = self._tag_idx.get(tag)
            if idx is None:
                idx = self._tag_idx[tag] = _TagIndex()
            idx.add(slot)
        self._mark_dirty()
        return done

    def tag_rate_series(self, tag: str) -> TimeSeries:
        """Exact aggregate-rate trace (bytes/s) for flows carrying ``tag``."""
        series = self._tag_series.get(tag)
        if series is None:
            series = TimeSeries(name=tag)
            self._tag_series[tag] = series
        return series

    @property
    def active_count(self) -> int:
        return len(self.flows)

    def flow_rate(self, flow: Flow) -> float:
        """Current allocated rate of an in-flight flow (0 if finished)."""
        if flow not in self.flows:
            return 0.0
        return float(self._slot_rate[flow.slot])

    def class_count(self) -> int:
        """Route classes with live members (== working solver columns)."""
        return self.live_classes

    def _on_link_rate_change(self, link, old_rate: float) -> None:
        """Network hook: a ``Link.set_rate`` schedules a recompute now.

        Capacity changes therefore bind at the current sim instant with no
        caller-side poke; the instant makes brownouts/flaps visible in
        Perfetto traces at the right time.
        """
        if TRACE.enabled:
            TRACE.instant(
                self.sim, "link.set_rate", cat="net.link",
                lane=f"link:{link.name}", link=link.name,
                old_rate=old_rate, rate=link.rate,
            )
        self._mark_dirty()

    def poke(self) -> None:
        """Force a rate recompute at the current instant.

        Rarely needed: `Link.set_rate` already schedules a recompute via
        the network's rate-change hook. Kept for exotic mutations (e.g.
        editing `Link.efficiency` directly) and as a harmless no-op after
        set_rate — recomputes at one instant are coalesced. Only
        components containing a changed link are actually re-solved.
        """
        self._mark_dirty()

    def link_utilization(self) -> dict:
        """Instantaneous per-link used fraction (diagnostics).

        Keyed by link name; only links carrying at least one active flow
        appear. Delegates to :func:`repro.net.fairshare.link_utilization`.
        """
        if not self.flows:
            return {}
        flows = list(self.flows)
        util = fairshare.link_utilization(
            self.network.link_capacities(),
            [f.path_ids for f in flows],
            [float(self._slot_rate[f.slot]) for f in flows],
        )
        carrying = sorted({l for f in flows for l in f.path_ids})
        return {self.network.links[l].name: float(util[l]) for l in carrying}

    # -- engine internals -------------------------------------------------------

    def _alloc_slot(self) -> int:
        if not self._free_slots:
            old = self._rem.shape[0]
            new = max(2 * old, 1)
            for name, fill in (
                ("_rem", 0.0),
                ("_last_t", 0.0),
                ("_fsize", 0.0),
                ("_finish", np.inf),
                ("_slot_rate", 0.0),
                ("_slot_col", -1),
            ):
                arr = getattr(self, name)
                grown = np.full(new, fill, dtype=arr.dtype)
                grown[:old] = arr
                setattr(self, name, grown)
            self._free_slots.extend(range(new - 1, old - 1, -1))
        return self._free_slots.pop()

    def _join_class(self, flow: Flow) -> int:
        """Count ``flow`` into its route class; return the class's column."""
        key = (flow.path_ids, flow.cap) if self.aggregate else flow.seq
        col = self._classes.get(key)
        if col is None:
            col = self._classes[key] = self._state.add_flow(flow.path_ids, flow.cap)
            self.live_classes += 1
            return col
        w = self._state.weight_of(col)
        if not w:
            del self._parked[key]
            self.live_classes += 1
        self._state.set_weight(col, w + 1)
        self.class_joins += 1
        return col

    def _leave_class(self, flow: Flow, col: int) -> None:
        """Count ``flow`` out of column ``col``; park or drop an emptied class."""
        w = self._state.weight_of(col)
        if w > 1:
            self._state.set_weight(col, w - 1)
            return
        self.live_classes -= 1
        if not self.aggregate:
            self._state.remove_flow(col)
            del self._classes[flow.seq]
            return
        # Park for cheap rejoin; evict the least-recently-parked class
        # beyond the cap so idle route keys cannot grow the solver forever.
        self._state.set_weight(col, 0)
        self._parked[(flow.path_ids, flow.cap)] = col
        if len(self._parked) > _MAX_PARKED_CLASSES:
            evicted = next(iter(self._parked))
            self._state.remove_flow(self._parked.pop(evicted))
            del self._classes[evicted]

    def _mark_dirty(self) -> None:
        if self._recompute_pending:
            return
        self._recompute_pending = True
        self.sim.schedule_callback(0.0, self._recompute, name="flow-recompute")

    def _recompute(self) -> None:
        self._recompute_pending = False
        now = self.sim.now
        self.recomputes += 1
        self.active_rows += len(self.flows)
        self._finish_drained(now)
        if self.flows:
            self._state.set_link_caps(self.network.link_capacities())
            cols, _ = self._state.solve()
            # Every live slot's rate equals its column's once this runs,
            # so only a moved column or a joined slot can break that.
            if cols.size or self._joined:
                slot_col = self._slot_col
                col_rates = self._state.rates[slot_col]
                slots = np.flatnonzero(
                    (col_rates != self._slot_rate) & (slot_col >= 0)
                )
                if slots.size:
                    old_rates = self._slot_rate[slots]
                    new_rates = col_rates[slots]
                    self.rate_changes += int(slots.size)
                    # Materialize residuals for exactly the flows whose
                    # rate changed (their old rate held from _last_t until
                    # now)...
                    rem = np.maximum(
                        0.0,
                        self._rem[slots] - old_rates * (now - self._last_t[slots]),
                    )
                    self._rem[slots] = rem
                    self._last_t[slots] = now
                    self._slot_rate[slots] = new_rates
                    # ... and re-predict finish times at the new rates.
                    self._finish[slots] = np.where(
                        rem <= self._fsize[slots] * _DONE_EPS_FRACTION,
                        now,
                        now + rem / new_rates,
                    )
                    if TRACE.enabled:
                        self._trace_rate_changes(slots)
        self._joined = False
        self._snapshot_tags(now)
        self._schedule_next_completion(now)

    def _finish_drained(self, now: float) -> None:
        """Complete every flow whose predicted finish time has arrived."""
        due = np.nonzero(self._finish <= now + _DONE_EPS_SECONDS)[0]
        if not due.size:
            return
        drained = [self._slot_flow[int(s)] for s in due]
        drained.sort(key=lambda f: f.seq)
        for f in drained:
            self._finish_flow(f)

    def _trace_rate_changes(self, slots: np.ndarray) -> None:
        """Record each changed flow's new rate with its bound tag.

        A flow at (or within :data:`_ATTR_EPS` of) its cap is bound by
        whichever cap term :func:`_cap_kind` identified at transfer time;
        otherwise the max-min property guarantees a saturated link on its
        path — attributed to the fullest one. Only called when tracing is
        enabled; costs one ``bincount`` over the solver's path table per
        recompute.
        """
        caps = np.asarray(self.network.link_capacities())
        if caps.size:
            util = self._state.link_usage()[: caps.shape[0]] / caps
        else:
            util = caps
        for s in slots:
            flow = self._slot_flow.get(int(s))
            if flow is None:
                continue
            rate = float(self._slot_rate[int(s)])
            if rate >= flow.cap * (1.0 - _ATTR_EPS):
                bound = flow.cap_kind or "cap"
            else:
                best = -1
                best_u = 1.0 - _ATTR_EPS
                for l in flow.path_ids:
                    if util[l] > best_u:
                        best, best_u = l, util[l]
                if best >= 0:
                    bound = f"link:{self.network.links[best].name}"
                else:
                    bound = "uncapped"
            TRACE.flow_rate(self.sim, flow.seq, rate, bound)

    def _finish_flow(self, f: Flow) -> None:
        slot = f.slot
        del self.flows[f]
        self._leave_class(f, int(self._slot_col[slot]))
        self._slot_col[slot] = -1
        del self._slot_flow[slot]
        self._finish[slot] = np.inf
        self._slot_rate[slot] = 0.0
        self._free_slots.append(slot)
        for tag in f.tags:
            self._tag_idx[tag].remove(slot)
        f.rate = 0.0
        f.remaining = 0.0
        self.bytes_moved += f.size
        self.completed_flows += 1
        if TRACE.enabled:
            TRACE.flow_drained(self.sim, f.seq)
        f.done.succeed_after(f.one_way_delay, f)

    def _snapshot_tags(self, now: float) -> None:
        rates = self._slot_rate
        for tag, series in self._tag_series.items():
            idx = self._tag_idx.get(tag)
            if idx is not None and idx.n:
                total = float(rates[idx.view()].sum())
            else:
                total = 0.0
            series.add(now, total)

    def _schedule_next_completion(self, now: float) -> None:
        self._timer_token += 1
        if not self.flows:
            return
        horizon = float(self._finish.min()) - now
        if not math.isfinite(horizon):
            raise RuntimeError(
                "active flows with zero rate — network has no capacity for them"
            )
        token = self._timer_token
        self.sim.schedule_callback(
            max(horizon, 0.0), lambda: self._on_timer(token), name="flow-finish"
        )

    def _on_timer(self, token: int) -> None:
        if token != self._timer_token:
            return  # superseded by a newer schedule
        self._recompute()
