"""Max-min fair bandwidth allocation with per-flow rate caps.

Progressive filling ("water-filling"). Each round either

* fixes every flow whose cap is at or below its current fair share on every
  link of its path (such a flow is cap-limited in the final allocation,
  because fair shares only grow as other flows get fixed below them), or
* saturates the current bottleneck link(s), fixing their flows at the
  bottleneck share.

Each round fixes at least one column, so the loop runs at most once per
column. Two routines run it, chosen by the number of *live* (weight > 0)
columns in the problem, and both return the same bits:

* :func:`_water_fill` (more than :data:`_SCALAR_MAX_COLS` live columns) —
  each round is a fixed handful of numpy calls over a (longest path) × F
  table of the columns' link ids and the weighted incidence built from it
  once per solve, so its cost is per-call overhead rather than matrix
  size. It skips the capped test when no cap can pass it (below);
* :func:`_fill_scalar` (the rest, down to one column) — the same rounds
  in plain Python floats over per-link dicts, whose cost grows with the
  column count but starts far below numpy's per-call overhead, so it
  wins on the many small components of a gateway or figure run. It
  performs exactly :func:`_water_fill`'s float operations in the same
  order: per link ``remaining / count``, per column the min over its
  path, the capped test ``fcap <= share * (1 + _REL_EPS)``, and the drain
  below. A min, a compare and a sum of integer weights are exact in any
  evaluation order, and every other operation is the same single IEEE
  operation on the same inputs, so the two routines agree bit for bit
  (pinned by a differential property test).

Two entry points share the solvers:

* :func:`max_min_rates` — stateless, builds the path table per call.
  Fine for one-shot questions and property tests.
* :class:`FairshareState` — a persistent path table for the flow
  engine's event loop: columns are added/removed as flows come and go
  (amortized growth, freed columns reused; nothing is rebuilt per
  solve, and a weight change writes no table), the link-sharing graph is
  partitioned into connected components with a union-find, and
  :meth:`FairshareState.solve` re-runs water-filling only for components
  marked dirty by a membership or capacity change. Adding a flow between
  SDSC and NCSA must not re-solve an untouched DEISA mesh.

The allocation is the unique max-min fair solution, so solving components
independently yields the same rates as one global solve (components share
no links by construction).

Route-class aggregation (weights)
---------------------------------

Columns carry an integer *weight*: a weight-``w`` column stands for ``w``
flows with the same link-incidence column and the same per-flow cap (a
"route class"). Water-filling treats it as ``w`` demanders on every link
it crosses, and the column's solved rate is the *per-member* rate — by
symmetry, max-min fairness gives identical members identical rates, so no
division back is ever needed.

Exactness argument (why weighted class-space solving is bit-identical to
solving one column per member flow):

* per-link active counts are sums of integer weights — exact in IEEE
  doubles under any summation order, so class space and flow space
  compute the same ``counts``;
* fair shares (``remaining / counts``), per-flow share minima, and every
  cap comparison are single operations on identical inputs;
* the only float *accumulation* is draining a round's newly fixed columns
  from ``remaining``. Per link, the drain groups them by distinct rate
  ``v``, sums their integer weights exactly into ``n_v``, subtracts
  ``fl(v * n_v)`` in ascending-``v`` order with plain IEEE arithmetic,
  and clamps at zero once at the end. Flow space (``w`` columns of
  weight 1 at rate ``v``) and class space (one column of weight ``w``)
  hand every link the same ``(v, n_v)`` multiset, so both perform the
  same float operations in the same order and get the same bits.

:func:`_water_fill` computes every ``n_v`` as a matvec of the weighted
incidence with the round's fixed mask (restricted to rate ``v`` when the
round fixed several rates): a sum of integer weights, exact in whatever
order BLAS adds them. A round that fixes one rate (almost every round)
is one matvec; a round with several subtracts ``fl(v * n_v)`` for each
of its rates in ascending order at every link, and at a link a rate does
not reach that is ``v * 0 == 0``, which moves no bit.

The capped-test skip is exact too. ``remaining`` never grows and a live
column counts at least 1 on every link it crosses, so its share never
exceeds the smallest capacity ``c`` on its path, and rounding is
monotone, so ``fl(share * (1 + _REL_EPS)) <= fl(c * (1 + _REL_EPS))``. A
column whose cap lies above the right-hand side never passes the capped
test; when every column's does, :func:`_water_fill` does not run it, and
the rounds make the same float operations as the routine that does.

Per-link quantities only ever see that link's own flows, grouped and
ordered by rate — never by column index — so permuting columns cannot
move a bit, and gluing unrelated groups into one solve (union-find
coarsening) changes no per-link arithmetic. Coarsening can still act
through the bottleneck threshold, the minimum share over the whole solve:
if one group's bottleneck share lies less than ``_REL_EPS`` (relative)
below another's, the other group's near-tied columns may be fixed a round
apart, which moves their rates by at most that tolerance.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

#: Relative tolerance when comparing rates.
_REL_EPS = 1e-9

#: Most live columns a problem may have to go to :func:`_fill_scalar`.
#: Timed per call on components captured from the end-to-end benchmark's
#: workloads (2-vCPU VM, CPython 3.11, numpy 2.4): on 2–8 live columns
#: numpy :func:`_water_fill` took 20–36 µs and :func:`_fill_scalar`
#: 8–20 µs; scalar was still 1.1–1.5× faster at 13–16 columns, they broke
#: even at 17–21, and numpy was 1.5× faster at 40 columns and 4× at 90
#: (``fleet``, ``lan_read``).
_SCALAR_MAX_COLS = 16


def _water_fill(
    table: np.ndarray,
    caps: np.ndarray,
    fcaps: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Progressive filling over path ``table``; returns per-column rates.

    ``table`` is a C-order (longest path) × F int array: column ``i`` lists
    the distinct link ids column ``i`` crosses (at least one), as indices
    into ``caps``, padded with -1. ``fcaps`` and ``weights`` hold each
    column's cap and integer member multiplicity; the solved rate of a
    weight-``w`` column is the per-member rate.
    """
    nflows = table.shape[1]
    # Renumber the links the columns cross 0..L-1 in id order. The padding
    # (-1 indexes the last slot) becomes one more link, of infinite
    # capacity: its share is inf or inf/0 == inf, so it never binds.
    used = np.zeros(caps.shape[0] + 1, dtype=np.intp)
    used[table] = 1
    ids = used.nonzero()[0]
    loc = (np.add.accumulate(used) - 1)[table]
    remaining = np.concatenate((caps, [np.inf]))[ids]
    nlinks = ids.shape[0]
    # Weighted incidence: W[l, i] = weights[i] if column i crosses link l.
    # Per-link live members are its row sums; a round's fixed members per
    # link are one matvec with the round's mask. Both are sums of integer
    # weights, exact in any order.
    W = np.zeros((nlinks, nflows))
    W[loc, np.arange(nflows)] = weights
    counts = np.add.reduce(W, axis=1)
    # A live column's share never exceeds the smallest capacity on its
    # path (``remaining`` only falls, a live link's count is at least 1,
    # and rounding is monotone), so a cap above fl(that capacity · (1+ε))
    # can never pass the capped test: skip the test if no cap can.
    may_cap = np.count_nonzero(
        fcaps <= np.minimum.reduce(remaining[loc], axis=0) * (1 + _REL_EPS))
    # ``share`` holds each link's fair share, then nan. A fixed column is
    # retired by pointing its first table row at the nan slot: its share
    # is then nan and fails every comparison.
    share = np.empty(nlinks + 1)
    share[nlinks] = np.nan
    link_share = share[:nlinks]
    retire = loc[0]
    rates = np.zeros(nflows)
    left = nflows

    # A link with no live column shares nan (0/0) or inf; only retired
    # columns cross it.
    with np.errstate(divide="ignore", invalid="ignore"):
        # Every round fixes at least one column (the capped set, or the
        # columns at the minimum share), so nflows rounds always suffice.
        for _ in range(nflows):
            np.divide(remaining, counts, out=link_share)
            shares = np.minimum.reduce(share[loc], axis=0)
            if may_cap:
                fixed = fcaps <= shares * (1 + _REL_EPS)
            if may_cap and np.count_nonzero(fixed):
                rate = fcaps
            else:
                # No live cap is within reach, so every live column's share
                # is below its cap: the bottleneck columns get their share.
                # The smallest live column share is the smallest share of a
                # link with live columns; fmin skips the nan of 0/0.
                fixed = shares <= np.fmin.reduce(link_share) * (1 + _REL_EPS)
                rate = shares
            cols = fixed.nonzero()[0]
            v = rate[cols]
            rates[cols] = v
            left -= cols.shape[0]
            if not left:
                # The last round's drain would never be read: skip it.
                return rates
            retire[cols] = nlinks
            # Drain: per link, the fixed weight ``n_v`` at each distinct
            # rate ``v`` is summed exactly and fl(v * n_v) subtracted in
            # ascending-``v`` order, then one clamp at zero. A link a rate
            # does not reach subtracts v * 0 == 0, which moves no bit.
            n = W.dot(fixed)
            counts -= n
            v0 = v[0]
            if not np.count_nonzero(v != v0):
                remaining -= v0 * n
            else:
                for r in np.unique(v):
                    remaining -= r * W.dot(fixed & (rates == r))
            np.maximum(remaining, 0.0, out=remaining)
    raise RuntimeError("progressive filling failed to converge")  # pragma: no cover


def _fill_scalar(
    paths: Sequence[Sequence[int]],
    caps: Sequence[float],
    fcaps: Sequence[float],
    weights: Sequence[float],
) -> List[float]:
    """:func:`_water_fill` in Python floats; returns per-column rates.

    ``paths[i]`` lists the distinct link ids column ``i`` crosses (at
    least one), as indices into ``caps``; ``fcaps`` and ``weights`` hold
    each column's cap and integer weight. Every round makes the same
    float operations as :func:`_water_fill`, drain included, so the
    rates are the same bits (module docstring).
    """
    # Inline loops, not min()/map(): a builtin call per column costs more
    # than the arithmetic on these few-link paths.
    slack = 1 + _REL_EPS
    inf = float("inf")
    counts: Dict[int, float] = {}
    for path, w in zip(paths, weights):
        for l in path:
            if l in counts:
                counts[l] += w
            else:
                counts[l] = w
    remaining = {l: caps[l] for l in counts}
    share = {l: remaining[l] / n for l, n in counts.items()}
    rates = [0.0] * len(paths)
    live = list(range(len(paths)))
    for _ in range(len(paths)):
        shares = []
        for i in live:
            s = inf
            for l in paths[i]:
                if share[l] < s:
                    s = share[l]
            shares.append(s)
        fixed = [(i, fcaps[i]) for i, s in zip(live, shares) if fcaps[i] <= s * slack]
        if not fixed:
            m = inf
            for s in shares:
                if s < m:
                    m = s
            m *= slack
            fixed = [(i, s) for i, s in zip(live, shares) if s <= m]
        for i, v in fixed:
            rates[i] = v
        if len(fixed) == len(live):
            return rates
        # Per touched link: the fixed weight summed by rate, subtracted in
        # ascending-rate order, then one clamp at 0. Only touched links'
        # shares move; a link whose count fell to 0 carries no live column.
        by_rate: Dict[int, Dict[float, float]] = {}
        for i, v in fixed:
            w = weights[i]
            for l in paths[i]:
                counts[l] -= w
                if l not in by_rate:
                    by_rate[l] = {v: w}
                elif v in by_rate[l]:
                    by_rate[l][v] += w
                else:
                    by_rate[l][v] = w
        for l, n_v in by_rate.items():
            r = remaining[l]
            for v in sorted(n_v):
                r -= v * n_v[v]
            if r < 0.0:
                r = 0.0
            remaining[l] = r
            if counts[l]:
                share[l] = r / counts[l]
        done = {i for i, _ in fixed}
        live = [i for i in live if i not in done]
    raise RuntimeError("progressive filling failed to converge")  # pragma: no cover


def _require_positive(values: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` naming the first entry not above 0, NaN included.

    ``what`` formats the entry's index, e.g. ``"link {} capacity"``. The
    solvers never see a NaN: numpy's ``minimum`` and Python's ``min``
    would disagree on one.
    """
    bad = ~(values > 0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{what.format(i)} must be positive, got {values[i]}")


def _entries(
    flow_links: Sequence[Sequence[int]], nlinks: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten paths: (path lengths, flow of each entry, link of each entry).

    Raises ``ValueError`` naming the flow if a link id is outside
    ``0..nlinks-1`` (numpy would silently wrap a negative one).
    """
    lengths = np.fromiter((len(p) for p in flow_links), dtype=np.intp,
                          count=len(flow_links))
    flow_of = np.repeat(np.arange(lengths.shape[0]), lengths)
    link_ids = np.fromiter((l for path in flow_links for l in path),
                           dtype=np.intp, count=flow_of.shape[0])
    bad = (link_ids < 0) | (link_ids >= nlinks)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"flow {flow_of[i]} crosses link id {link_ids[i]}; "
                         f"link ids run 0..{nlinks - 1}")
    return lengths, flow_of, link_ids


def max_min_rates(
    link_caps: Sequence[float],
    flow_links: Sequence[Sequence[int]],
    flow_caps: Sequence[float],
    flow_weights: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Allocate rates to flows.

    Parameters
    ----------
    link_caps:
        Usable capacity of each link (bytes/s), indexed by link id.
    flow_links:
        For each flow, the link ids on its path (may be empty for loopback
        flows, which then get exactly their cap). Ids must lie in
        ``0..len(link_caps)-1``.
    flow_caps:
        Per-flow rate cap (``inf`` allowed only for flows with a non-empty
        path; a pathless flow must have a finite cap).
    flow_weights:
        Optional member multiplicity per entry (route-class aggregation):
        a weight-``w`` entry stands for ``w`` identical flows and its
        returned rate is the per-member rate. Default all ones.

    Returns
    -------
    numpy array of allocated rates, same order as ``flow_links``.

    Properties (tested): no link oversubscribed; every flow gets a positive
    rate; a flow is either at its cap or has a bottleneck link that is fully
    used; allocation is max-min fair; a weight-``w`` entry gets the same
    rate as ``w`` separate weight-1 entries would, bit for bit.
    """
    nflows = len(flow_links)
    caps = np.asarray(link_caps, dtype=float)
    nlinks = caps.shape[0]
    fcaps = np.asarray(flow_caps, dtype=float)
    if fcaps.shape[0] != nflows:
        raise ValueError("flow_caps length must match flow_links")
    _require_positive(fcaps, "flow {} cap")
    _require_positive(caps, "link {} capacity")
    if flow_weights is None:
        weights = np.ones(nflows)
    else:
        weights = np.asarray(flow_weights, dtype=float)
        if weights.shape[0] != nflows:
            raise ValueError("flow_weights length must match flow_links")
        if np.any(weights < 1) or np.any(weights != np.floor(weights)):
            raise ValueError("flow weights must be positive integers")

    rates = np.zeros(nflows)
    if nflows == 0:
        return rates

    lengths, _, _ = _entries(flow_links, nlinks)
    pathless = lengths == 0
    if np.any(pathless & ~np.isfinite(fcaps)):
        raise ValueError("a flow with an empty path must have a finite cap")
    rates[pathless] = fcaps[pathless]

    pathful = np.flatnonzero(~pathless)
    if not pathful.size:
        return rates
    # A path may repeat a link; it counts once.
    paths = [list(dict.fromkeys(flow_links[f])) for f in pathful.tolist()]
    if pathful.size > _SCALAR_MAX_COLS:
        rates[pathful] = _water_fill(_path_table(paths), caps, fcaps[pathful],
                                     weights[pathful])
    else:
        rates[pathful] = _fill_scalar(paths, caps.tolist(), fcaps[pathful].tolist(),
                                      weights[pathful].tolist())
    return rates


def _path_table(paths: Sequence[Sequence[int]]) -> np.ndarray:
    """The (longest path) × F table :func:`_water_fill` takes, padded with -1."""
    table = np.full((max(map(len, paths)), len(paths)), -1, dtype=np.intp)
    for i, path in enumerate(paths):
        table[: len(path), i] = path
    return table


def link_utilization(
    link_caps: Sequence[float],
    flow_links: Sequence[Sequence[int]],
    rates: Sequence[float],
) -> np.ndarray:
    """Per-link used fraction under allocation ``rates`` (diagnostics).

    The single implementation of this accumulation — the flow engine's
    :meth:`~repro.net.flow.FlowEngine.link_utilization` delegates here.
    """
    caps = np.asarray(link_caps, dtype=float)
    _, flow_of, link_ids = _entries(flow_links, caps.shape[0])
    used = np.zeros_like(caps)
    np.add.at(used, link_ids, np.asarray(rates, dtype=float)[flow_of])
    return used / caps


class FairshareState:
    """Persistent path table/cap arrays + component-partitioned re-solve.

    Owns the (longest path) × C table of link ids the solver runs over,
    where C is a column *capacity* (doubled on demand). A flow occupies one
    column from :meth:`add_flow` until :meth:`remove_flow`; freed columns
    go on a free list and are reused LIFO, so the table is written only on
    those two events and on growth, never per solve.

    Links are partitioned by a union-find into connected components of the
    link-sharing graph (two links are connected when some active flow
    crosses both). A membership or capacity change dirties only the
    touched component; :meth:`solve` water-fills dirty components in
    isolation and returns the columns whose rate changed. Flow departures
    never split components eagerly (the partition only coarsens); after
    :attr:`_REBUILD_REMOVALS` removals the partition is rebuilt from the
    active flows, which re-tightens it at amortized O(path) per removal.
    """

    #: Removals tolerated before the (only-coarsening) partition is rebuilt.
    _REBUILD_REMOVALS = 512

    def __init__(self, link_caps: Sequence[float] = (), capacity: int = 64) -> None:
        caps = np.array(link_caps, dtype=float)
        _require_positive(caps, "link {} capacity")
        self._caps = caps
        #: ``_caps`` as Python floats, for :func:`_fill_scalar`.
        self._cap_list: List[float] = caps.tolist()
        #: The read-only array ``_caps`` was last adopted from, if any.
        self._caps_src: Optional[np.ndarray] = None
        self._nlinks = caps.shape[0]
        cap = max(int(capacity), 1)
        #: Column ``c``'s distinct link ids, padded with -1: what
        #: :func:`_water_fill` takes, C-ordered so a component's slice is
        #: too. Grows a row when a path longer than any before arrives.
        self._table = np.full((1, cap), -1, dtype=np.intp)
        self._fcaps = np.zeros(cap)
        self._rates = np.zeros(cap)
        self._weights = np.zeros(cap)
        self._active = np.zeros(cap, dtype=bool)
        self._paths: List[Optional[List[int]]] = [None] * cap
        # Popped back-first so fresh columns are handed out in index order.
        self._free: List[int] = list(range(cap - 1, -1, -1))
        self.nactive = 0
        # Union-find over link ids; a component's id is its root link.
        self._parent: List[int] = list(range(self._nlinks))
        self._size: List[int] = [1] * self._nlinks
        #: root link id -> set of active columns in that component.
        self._comp_cols: Dict[int, Set[int]] = {}
        self._dirty: Set[int] = set()
        #: columns rated outside solve() (pathless flows), reported once.
        self._fresh: List[int] = []
        self._removals = 0
        #: Always-on solve counters, scraped by repro.obs.
        self.solves = 0
        self.solved_rows = 0
        self.single_flow_solves = 0
        self.weight_changes = 0

    # -- union-find -----------------------------------------------------------

    def _find(self, l: int) -> int:
        parent = self._parent
        root = l
        while parent[root] != root:
            root = parent[root]
        while parent[l] != root:  # path compression
            parent[l], l = root, parent[l]
        return root

    def _union(self, a: int, b: int) -> int:
        """Merge the components of roots ``a`` and ``b``; return the root."""
        if a == b:
            return a
        # Union by size; smaller root id wins ties for determinism.
        if (self._size[a], -a) < (self._size[b], -b):
            a, b = b, a
        self._parent[b] = a
        self._size[a] += self._size[b]
        cols = self._comp_cols.pop(b, None)
        if cols:
            self._comp_cols.setdefault(a, set()).update(cols)
        if b in self._dirty:
            self._dirty.discard(b)
            self._dirty.add(a)
        return a

    def _union_path(self, path: List[int]) -> int:
        """Union every link of a non-empty ``path``; return the root."""
        root = self._find(path[0])
        for l in path[1:]:
            root = self._union(root, self._find(l))
        return root

    # -- capacity maintenance -------------------------------------------------

    def _grow_cols(self) -> None:
        old = self._table.shape[1]
        new = max(2 * old, 1)
        self._table = np.pad(self._table, ((0, 0), (0, new - old)),
                             constant_values=-1)
        # np.pad appends zeros (False) and keeps each array's dtype.
        for name in ("_fcaps", "_rates", "_weights", "_active"):
            setattr(self, name, np.pad(getattr(self, name), (0, new - old)))
        self._paths.extend([None] * (new - old))
        self._free.extend(range(new - 1, old - 1, -1))

    def _grow_links(self, nlinks: int) -> None:
        # The adopted capacity array no longer covers every link.
        self._caps_src = None
        self._parent.extend(range(self._nlinks, nlinks))
        self._size.extend([1] * (nlinks - self._nlinks))
        self._nlinks = nlinks

    def set_link_caps(self, link_caps: Sequence[float]) -> None:
        """Adopt the current capacity vector; dirty components that changed.

        Called by the engine before every solve, so ``Link.set_rate``
        changes are picked up at the next event with no further plumbing —
        but only the components containing a changed link re-solve. A
        read-only ndarray (what ``Network.link_capacities`` hands out) is
        remembered, and handing the same object again returns at once:
        nobody can have changed it in place.
        """
        if link_caps is self._caps_src:
            return
        caps = np.asarray(link_caps, dtype=float)
        if caps.shape[0] < self._nlinks:
            raise ValueError("links cannot be removed from a FairshareState")
        _require_positive(caps, "link {} capacity")
        if caps.shape[0] > self._nlinks:
            self._grow_links(caps.shape[0])
        if isinstance(link_caps, np.ndarray) and not link_caps.flags.writeable:
            self._caps_src = link_caps
        if self._caps.shape[0] == caps.shape[0] and np.array_equal(caps, self._caps):
            return
        old = self._caps
        for l in range(caps.shape[0]):
            if l >= old.shape[0] or caps[l] != old[l]:
                root = self._find(l)
                if self._comp_cols.get(root):
                    self._dirty.add(root)
        self._caps = caps.copy()
        self._cap_list = caps.tolist()

    # -- flow membership --------------------------------------------------------

    def add_flow(self, path: Sequence[int], fcap: float, weight: int = 1) -> int:
        """Insert a flow crossing link ids ``path``; returns its column.

        ``weight`` is the route-class member multiplicity: a weight-``w``
        column is solved as ``w`` identical flows, and its rate is the
        per-member rate. Use :meth:`set_weight` for join/leave updates.
        Link ids at or above the current link count grow the state; a
        negative id is rejected, and a repeated one counts once.
        """
        path = list(dict.fromkeys(path))
        if not fcap > 0:
            raise ValueError(f"flow on path {path}: cap must be positive, got {fcap}")
        if weight < 1 or weight != int(weight):
            raise ValueError("flow weight must be a positive integer")
        if path and min(path) < 0:
            raise ValueError(f"path {path} has negative link id {min(path)}")
        if not path and not np.isfinite(fcap):
            raise ValueError("a flow with an empty path must have a finite cap")
        if not self._free:
            self._grow_cols()
        col = self._free.pop()
        self._fcaps[col] = fcap
        self._rates[col] = 0.0
        self._weights[col] = float(weight)
        self._active[col] = True
        self.nactive += 1
        self._paths[col] = path
        if path:
            # The network may have grown links since the last solve; row
            # growth happens here, capacities arrive via set_link_caps.
            need = max(path) + 1
            if need > self._nlinks:
                self._grow_links(need)
            extra = len(path) - self._table.shape[0]
            if extra > 0:
                self._table = np.pad(self._table, ((0, extra), (0, 0)),
                                     constant_values=-1)
            self._table[: len(path), col] = path
            root = self._union_path(path)
            self._comp_cols.setdefault(root, set()).add(col)
            self._dirty.add(root)
        else:
            # Pathless flows are their own trivial component: the rate is
            # the cap, now and forever — rated at the next solve(), no
            # water-filling needed.
            self._fresh.append(col)
        return col

    def remove_flow(self, col: int) -> None:
        """Release ``col``; its component re-solves on the next ``solve()``."""
        if not self._active[col]:
            raise ValueError(f"column {col} is not active")
        path = self._paths[col]
        self._active[col] = False
        self._paths[col] = None
        self._rates[col] = 0.0
        self._fcaps[col] = 0.0
        self._weights[col] = 0.0
        self.nactive -= 1
        if path:
            self._table[: len(path), col] = -1
            root = self._find(path[0])
            cols = self._comp_cols.get(root)
            if cols is not None:
                cols.discard(col)
                if cols:
                    self._dirty.add(root)
                else:
                    del self._comp_cols[root]
                    self._dirty.discard(root)
            self._removals += 1
        self._free.append(col)

    def set_weight(self, col: int, weight: int) -> None:
        """Adjust a column's member multiplicity (route-class join/leave).

        The column's component re-solves at the next :meth:`solve`. Weight
        0 parks the column: it stays registered (its links stay unioned,
        so a later re-join is a pure weight bump with no matrix or
        union-find churn) but is skipped by the solver entirely — a parked
        column costs nothing per solve. A parked column's links staying
        glued changes no per-link arithmetic (see the module docstring for
        the one near-tie caveat).
        """
        if not self._active[col]:
            raise ValueError(f"column {col} is not active")
        if weight < 0 or weight != int(weight):
            raise ValueError("flow weight must be a non-negative integer")
        old = self._weights[col]
        w = float(weight)
        if w == old:
            return
        self._weights[col] = w
        self.weight_changes += 1
        path = self._paths[col]
        if path:
            self._dirty.add(self._find(path[0]))
        # Pathless classes keep rate == fcap at any weight; nothing to do.

    def weight_of(self, col: int) -> int:
        return int(self._weights[col])

    def rate_of(self, col: int) -> float:
        return float(self._rates[col])

    @property
    def rates(self) -> np.ndarray:
        """Current per-column rates (authoritative; do not mutate)."""
        return self._rates

    @property
    def capacity(self) -> int:
        """Current column capacity (callers keeping parallel arrays)."""
        return self._table.shape[1]

    # -- solving ---------------------------------------------------------------

    def _rebuild_partition(self) -> None:
        """Recompute components from the active flows (undoes coarsening)."""
        dirty_cols = [c for r in self._dirty for c in self._comp_cols.get(r, ())]
        self._parent = list(range(self._nlinks))
        self._size = [1] * self._nlinks
        self._comp_cols = {}
        self._dirty = set()
        for col in np.nonzero(self._active)[0]:
            path = self._paths[int(col)]
            if path:
                root = self._union_path(path)
                self._comp_cols.setdefault(root, set()).add(int(col))
        for col in dirty_cols:
            path = self._paths[col]
            if path:
                self._dirty.add(self._find(path[0]))
        self._removals = 0

    def _require_link_caps(self) -> None:
        """Raise ``ValueError`` naming the first uncovered link a solve needs."""
        have = self._caps.shape[0]
        needed = [l for root in self._dirty for c in self._comp_cols.get(root, ())
                  if self._weights[c] for l in self._paths[c] if l >= have]
        if needed:
            raise ValueError(f"link {min(needed)} has no capacity: set_link_caps "
                             f"has covered {have} links")

    def solve(self) -> Tuple[np.ndarray, np.ndarray]:
        """Re-solve dirty components.

        Returns ``(cols, old_rates)``: the columns whose rate changed and
        the rates they had before this solve (the new rates are readable
        via :attr:`rates` / :meth:`rate_of`). Untouched components keep
        their rates and do not appear. Raises ``ValueError``, changing
        nothing, if a live column to solve crosses a link that
        :meth:`set_link_caps` has not covered yet.
        """
        if self._caps.shape[0] < self._nlinks:
            self._require_link_caps()
        moved_cols: List[np.ndarray] = []
        moved_old: List[np.ndarray] = []
        if self._fresh:
            fresh = np.asarray(self._fresh, dtype=np.intp)
            self._fresh = []
            moved_cols.append(fresh)
            moved_old.append(self._rates[fresh])
            self._rates[fresh] = self._fcaps[fresh]
        if self._removals >= self._REBUILD_REMOVALS:
            self._rebuild_partition()
        for root in sorted(self._dirty):
            cols_set = self._comp_cols.get(root)
            if not cols_set:
                continue
            # Weight-0 (parked) class columns keep the component glued but
            # take no bandwidth; the solver never sees them.
            comp_cols = np.fromiter(sorted(cols_set), dtype=np.intp,
                                    count=len(cols_set))
            cols = comp_cols[self._weights[comp_cols] > 0.0]
            # The solver is chosen by live count: on the gateway workload
            # most components register 20–24 columns, at most 10 of them
            # live.
            n = cols.shape[0]
            if not n:
                continue
            if n == 1:
                self.single_flow_solves += 1
            else:
                self.solves += 1
                self.solved_rows += n
            if n <= _SCALAR_MAX_COLS:
                paths = self._paths
                rates = np.array(_fill_scalar(
                    [paths[c] for c in cols.tolist()], self._cap_list,
                    self._fcaps[cols].tolist(), self._weights[cols].tolist()))
            else:
                # np.take keeps C order; a ``[:, cols]`` slice comes back
                # Fortran-ordered, which slows every round's min down the
                # table.
                rates = _water_fill(np.take(self._table, cols, axis=1), self._caps,
                                    self._fcaps[cols], self._weights[cols])
            old = self._rates[cols]
            moved = np.flatnonzero(rates != old)
            if moved.size:
                moved_cols.append(cols[moved])
                moved_old.append(old[moved])
                self._rates[cols] = rates
        self._dirty.clear()
        if len(moved_cols) == 1:
            return moved_cols[0], moved_old[0]
        if not moved_cols:
            empty = np.empty(0)
            return empty.astype(np.intp), empty
        return np.concatenate(moved_cols), np.concatenate(moved_old)

    # -- diagnostics ------------------------------------------------------------

    def link_usage(self) -> np.ndarray:
        """Per-link allocated bytes/s under the current rates.

        One ``bincount`` over the path table — the bottleneck-attribution
        layer (``repro.sim.trace``) divides this by the capacity vector to
        find which links are saturated at each rate change. Only called
        when tracing is enabled.
        """
        table = self._table
        on = table >= 0
        demand = np.broadcast_to(self._rates * self._weights, table.shape)
        return np.bincount(table[on], weights=demand[on], minlength=self._nlinks)

    def class_stats(self) -> Tuple[int, int]:
        """(active solver columns, total member weight across them).

        The aggregation ratio ``members / columns`` is the solver-dimension
        reduction route-class aggregation bought (1.0 when unaggregated).
        """
        act = self._active
        return int(np.count_nonzero(act)), int(self._weights[act].sum())

    def component_sizes(self) -> List[int]:
        """Active-flow count per link-sharing component (for tests/benches)."""
        return sorted(len(cols) for cols in self._comp_cols.values() if cols)
