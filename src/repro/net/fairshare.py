"""Max-min fair bandwidth allocation with per-flow rate caps.

Vectorized progressive filling ("water-filling"). Each iteration either

* fixes every flow whose cap is at or below its current fair share on every
  link of its path (such a flow is cap-limited in the final allocation,
  because fair shares only grow as other flows get fixed below them), or
* saturates the current bottleneck link(s), fixing their flows at the
  bottleneck share.

Each iteration removes at least one link or the whole capped set, so the
loop runs O(links) times; each iteration is a fixed handful of numpy calls
over the incidence's (column, link) entry list, so its cost is per-call
overhead rather than matrix size (this routine is the simulator's hot
spot).

Two entry points share the solver core:

* :func:`max_min_rates` — stateless, rebuilds the incidence matrix per
  call. Fine for one-shot questions and property tests.
* :class:`FairshareState` — persistent incidence state for the flow
  engine's event loop: columns are added/removed as flows come and go
  (amortized growth, freed columns reused), the link-sharing graph is
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
  from ``remaining``. Per link, :func:`_drain` groups them by distinct
  rate ``v``, sums their integer weights exactly into ``n_v``, subtracts
  ``fl(v * n_v)`` in ascending-``v`` order with plain IEEE arithmetic,
  and clamps at zero once at the end. Flow space (``w`` columns of
  weight 1 at rate ``v``) and class space (one column of weight ``w``)
  hand every link the same ``(v, n_v)`` multiset, so both perform the
  same float operations in the same order and get the same bits.

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

from repro.sim.profile import PROFILE

#: Relative tolerance when comparing rates.
_REL_EPS = 1e-9


def _drain(
    remaining: np.ndarray,
    counts: np.ndarray,
    fixed: np.ndarray,
    v: np.ndarray,
    flows_cat: np.ndarray,
    links_cat: np.ndarray,
    w_cat: np.ndarray,
) -> None:
    """Take one round's newly fixed columns off the links, in place.

    ``fixed`` masks the columns and ``v`` holds their rates in column
    order; ``flows_cat``/``links_cat``/``w_cat`` list one entry per
    (column, link it crosses) with the column's integer weight. Each
    link's ``counts`` loses the fixed weight. Its ``remaining`` loses the
    fixed demand: entries are grouped by distinct ``v`` with their weights
    summed exactly into ``n_v``, ``fl(v * n_v)`` is subtracted in
    ascending-``v`` order, and the result is clamped at zero once. The
    module docstring argues why this is bit-identical across class/flow
    space and column order.
    """
    sel = fixed[flows_cat]
    links, w = links_cat[sel], w_cat[sel]
    n = np.bincount(links, weights=w, minlength=counts.shape[0])
    counts -= n
    v0 = v[0]
    if not np.count_nonzero(v != v0):
        # One rate: ``n_v`` is ``n``, and a link the round did not touch
        # subtracts v * 0 == 0.
        remaining -= v0 * n
    else:
        # Entries and fixed columns are both in column order.
        v = v[np.cumsum(fixed)[flows_cat[sel]] - 1]
        order = np.lexsort((v, links))
        links, v, w = links[order], v[order], w[order]
        same = (links[1:] == links[:-1]) & (v[1:] == v[:-1])
        starts = np.flatnonzero(np.concatenate(([True], ~same)))
        glinks = links[starts]
        vn = v[starts] * np.add.reduceat(w, starts)
        # A group's rank among its link's groups; rank r is every link's
        # r-th subtraction, one vectorized step (links are unique per rank).
        rank = np.arange(starts.shape[0]) - np.searchsorted(glinks, glinks)
        for r in range(int(rank.max()) + 1):
            at = rank == r
            remaining[glinks[at]] -= vn[at]
    np.maximum(remaining, 0.0, out=remaining)


def _water_fill(
    M: np.ndarray,
    caps: np.ndarray,
    fcaps: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Progressive filling over incidence ``M``; returns per-column rates.

    ``M`` is the L×F bool incidence matrix and every column crosses at
    least one link (callers rate pathless flows at their cap). ``weights``
    holds the integer member multiplicity per column; the solved rate of
    a weight-``w`` column is the per-member rate.
    """
    nlinks, nflows = M.shape
    remaining = caps.copy()
    rates = np.zeros(nflows)
    # One entry per (column, link it crosses), in column order.
    flows_cat, links_cat = np.nonzero(M.T)
    w_cat = weights[flows_cat]
    # The same entries as a (longest path) × F table of link indices, so a
    # column's fair share is one min down its table column. Short paths
    # are padded with link ``nlinks``, whose share is inf. A fixed column
    # is retired by pointing its first row at link ``nlinks + 1``, whose
    # share is nan: its share is then nan and fails every comparison.
    per_col = np.bincount(flows_cat, minlength=nflows)
    starts = np.zeros(nflows, dtype=np.intp)
    np.cumsum(per_col[:-1], out=starts[1:])
    table = np.full((per_col.max(), nflows), nlinks)
    table[np.arange(flows_cat.shape[0]) - starts[flows_cat], flows_cat] = links_cat
    retire = table[0]
    share = np.full(nlinks + 2, np.inf)
    share[-1] = np.nan
    link_share = share[:nlinks]
    # Live members per link. Integer-valued, so the drain's per-round
    # decrement is exact.
    counts = np.bincount(links_cat, weights=w_cat, minlength=nlinks)
    left = nflows

    # A link with no live column shares inf (or nan at 0/0); only retired
    # columns cross such a link.
    with np.errstate(divide="ignore", invalid="ignore"):
        # Every round fixes at least one column (the capped set, or the
        # columns at the minimum share), so nflows rounds always suffice.
        for _ in range(nflows):
            np.divide(remaining, counts, out=link_share)
            shares = np.minimum.reduce(share[table], axis=0)
            fixed = fcaps <= shares * (1 + _REL_EPS)
            if np.count_nonzero(fixed):
                v = fcaps[fixed]
            else:
                # No live cap is within reach, so every live column's share
                # is below its cap: the bottleneck columns get their share.
                m = np.fmin.reduce(shares)  # fmin skips the retired nans
                fixed = shares <= m * (1 + _REL_EPS)
                v = shares[fixed]
            rates[fixed] = v
            left -= v.shape[0]
            if not left:
                # The last round's drain would never be read: skip it.
                return rates
            retire[fixed] = nlinks + 1
            _drain(remaining, counts, fixed, v, flows_cat, links_cat, w_cat)
    raise RuntimeError("progressive filling failed to converge")  # pragma: no cover


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
    if np.any(fcaps <= 0):
        raise ValueError("flow caps must be positive")
    if np.any(caps <= 0):
        raise ValueError("link capacities must be positive")
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

    lengths, flow_of, link_ids = _entries(flow_links, nlinks)
    pathless = lengths == 0
    if np.any(pathless & ~np.isfinite(fcaps)):
        raise ValueError("a flow with an empty path must have a finite cap")
    rates[pathless] = fcaps[pathless]

    pathful = np.flatnonzero(~pathless)
    if pathful.size:
        # Incidence matrix M[l, f] = flow f crosses link l.
        M = np.zeros((nlinks, nflows), dtype=bool)
        M[link_ids, flow_of] = True
        rates[pathful] = _water_fill(M[:, pathful], caps, fcaps[pathful],
                                     weights[pathful])
    return rates


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
    """Persistent incidence/cap arrays + component-partitioned re-solve.

    Owns the L×C incidence matrix the solver runs over, where C is a
    column *capacity* (doubled on demand). A flow occupies one column from
    :meth:`add_flow` until :meth:`remove_flow`; freed columns go on a free
    list and are reused LIFO, so the matrix is built once and patched per
    event instead of rebuilt per solve.

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
        if np.any(caps <= 0):
            raise ValueError("link capacities must be positive")
        self._caps = caps
        self._nlinks = caps.shape[0]
        cap = max(int(capacity), 1)
        self._M = np.zeros((self._nlinks, cap), dtype=bool)
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
        #: Always-on solve counters (scraped by repro.obs; PROFILE keeps
        #: the opt-in fine-grained versions).
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
        old = self._M.shape[1]
        new = max(2 * old, 1)
        PROFILE.count("fairshare.matrix_growths")
        # np.pad appends zeros (False) and keeps each array's dtype.
        self._M = np.pad(self._M, ((0, 0), (0, new - old)))
        for name in ("_fcaps", "_rates", "_weights", "_active"):
            setattr(self, name, np.pad(getattr(self, name), (0, new - old)))
        self._paths.extend([None] * (new - old))
        self._free.extend(range(new - 1, old - 1, -1))

    def _grow_links(self, nlinks: int) -> None:
        self._M = np.pad(self._M, ((0, nlinks - self._nlinks), (0, 0)))
        self._parent.extend(range(self._nlinks, nlinks))
        self._size.extend([1] * (nlinks - self._nlinks))
        self._nlinks = nlinks

    def set_link_caps(self, link_caps: Sequence[float]) -> None:
        """Adopt the current capacity vector; dirty components that changed.

        Called by the engine before every solve, so ``Link.set_rate``
        changes are picked up at the next event with no further plumbing —
        but only the components containing a changed link re-solve.
        """
        caps = np.asarray(link_caps, dtype=float)
        if caps.shape[0] > self._nlinks:
            self._grow_links(caps.shape[0])
        elif caps.shape[0] < self._nlinks:
            raise ValueError("links cannot be removed from a FairshareState")
        if self._caps.shape[0] == caps.shape[0] and np.array_equal(caps, self._caps):
            return
        if np.any(caps <= 0):
            raise ValueError("link capacities must be positive")
        old = self._caps
        for l in range(caps.shape[0]):
            if l >= old.shape[0] or caps[l] != old[l]:
                root = self._find(l)
                if self._comp_cols.get(root):
                    self._dirty.add(root)
        self._caps = caps.copy()

    # -- flow membership --------------------------------------------------------

    def add_flow(self, path: Sequence[int], fcap: float, weight: int = 1) -> int:
        """Insert a flow crossing link ids ``path``; returns its column.

        ``weight`` is the route-class member multiplicity: a weight-``w``
        column is solved as ``w`` identical flows, and its rate is the
        per-member rate. Use :meth:`set_weight` for join/leave updates.
        Link ids at or above the current link count grow the state; a
        negative id is rejected.
        """
        if fcap <= 0:
            raise ValueError("flow caps must be positive")
        if weight < 1 or weight != int(weight):
            raise ValueError("flow weight must be a positive integer")
        path = list(path)
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
            self._M[path, col] = True
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
            self._M[path, col] = False
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
        return self._M.shape[1]

    # -- solving ---------------------------------------------------------------

    def _rebuild_partition(self) -> None:
        """Recompute components from the active flows (undoes coarsening)."""
        PROFILE.count("fairshare.partition_rebuilds")
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

    def solve(self) -> Tuple[np.ndarray, np.ndarray]:
        """Re-solve dirty components.

        Returns ``(cols, old_rates)``: the columns whose rate changed and
        the rates they had before this solve (the new rates are readable
        via :attr:`rates` / :meth:`rate_of`). Untouched components keep
        their rates and do not appear.
        """
        moved_cols: List[np.ndarray] = []
        moved_old: List[np.ndarray] = []

        def move(cols: np.ndarray, new_rates) -> None:
            moved_cols.append(cols)
            moved_old.append(self._rates[cols].copy())
            self._rates[cols] = new_rates

        if self._fresh:
            fresh = np.asarray(self._fresh, dtype=np.intp)
            self._fresh = []
            move(fresh, self._fcaps[fresh])
        if self._removals >= self._REBUILD_REMOVALS:
            self._rebuild_partition()
        for root in sorted(self._dirty):
            cols_set = self._comp_cols.get(root)
            if not cols_set:
                continue
            # Weight-0 (parked) class columns keep the component glued but
            # take no bandwidth; the solver never sees them.
            comp_cols = np.fromiter(cols_set, dtype=np.intp,
                                    count=len(cols_set))
            live_cols = comp_cols[self._weights[comp_cols] > 0.0]
            if not live_cols.size:
                continue
            if live_cols.size == 1:
                # Single-column component: water-filling reduces to one
                # round. counts are ``w`` on every link of the path, so the
                # column's share is min(caps over path) / w — division by a
                # constant is weakly monotone, so the min commutes with it
                # and this produces the same bits as the general solver.
                c = int(live_cols[0])
                m = min(self._caps[l] for l in self._paths[c]) / self._weights[c]
                fcap = self._fcaps[c]
                rate = fcap if fcap <= m * (1 + _REL_EPS) else m
                self.single_flow_solves += 1
                PROFILE.count("fairshare.single_flow_solves")
                if rate != self._rates[c]:
                    move(np.asarray([c], dtype=np.intp), rate)
                continue
            cols = np.sort(live_cols)
            sub = self._M[:, cols]
            links = np.nonzero(sub.any(axis=1))[0]
            self.solves += 1
            self.solved_rows += int(cols.shape[0])
            PROFILE.count("fairshare.solves")
            PROFILE.count("fairshare.solved_rows", cols.shape[0])
            rates = _water_fill(sub[links], self._caps[links],
                                self._fcaps[cols], self._weights[cols])
            diff = rates != self._rates[cols]
            if diff.any():
                move(cols[diff], rates[diff])
        self._dirty.clear()
        if not moved_cols:
            empty = np.empty(0)
            return empty.astype(np.intp), empty
        return np.concatenate(moved_cols), np.concatenate(moved_old)

    # -- diagnostics ------------------------------------------------------------

    def link_usage(self) -> np.ndarray:
        """Per-link allocated bytes/s under the current rates.

        One dense matvec over the incidence state — the bottleneck-
        attribution layer (``repro.sim.trace``) divides this by the
        capacity vector to find which links are saturated at each rate
        change. Only called when tracing is enabled.
        """
        return self._M @ (self._rates * self._active * self._weights)

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
