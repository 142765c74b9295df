"""Network graph: nodes, duplex links, shortest-path routing.

A :class:`Network` is a static directed graph of named nodes. Hosts hang off
switches via NIC links; WAN trunks connect switches/routers. Routing is
Dijkstra by propagation delay (hop count, then node name, as tiebreaks).
The first route asked of a source runs it to completion and keeps the
source's shortest-path tree (each reached node's predecessor link), so a
mesh of N sources and M destinations costs N searches, not N·M; a path is
the tree's predecessors walked back from the destination. Delays are
non-negative, so a settled node's predecessor never changes after it
settles, and the tree gives every destination the path a search stopping
at that destination would have.

Derived per-pair quantities (paths, delay sums, link-id tuples,
bottleneck rates) are cached too: they are recomputed identically
otherwise on every message send and flow start, which dominates RPC-heavy
runs. The tree, path, delay and id caches are invalidated when a link is
added; the bottleneck cache additionally on any ``Link.set_rate`` (the
only mutable link attribute).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np
from typing import Dict, List, Optional, Tuple

from repro.net.link import Link


class RoutingError(KeyError):
    """No path between two nodes."""


@dataclass
class NetNode:
    """A named network endpoint (host, switch, or router)."""

    name: str
    site: str = ""
    kind: str = "host"  # host | switch | router
    meta: dict = field(default_factory=dict)

    def __hash__(self) -> int:
        return hash(self.name)


class Network:
    """Static topology + routing."""

    def __init__(self) -> None:
        self.nodes: Dict[str, NetNode] = {}
        self.links: List[Link] = []
        self._adj: Dict[str, List[Link]] = {}
        #: source -> its shortest-path tree: node -> predecessor link.
        self._trees: Dict[str, Dict[str, Link]] = {}
        self._path_cache: Dict[Tuple[str, str], List[Link]] = {}
        self._pathids_cache: Dict[Tuple[str, str], Tuple[int, ...]] = {}
        self._delay_cache: Dict[Tuple[str, str], float] = {}
        self._bneck_cache: Dict[Tuple[str, str], float] = {}
        self._caps_cache: Optional[np.ndarray] = None
        self._rate_listeners: List = []

    # -- construction --------------------------------------------------------

    def add_node(self, name: str, site: str = "", kind: str = "host", **meta) -> NetNode:
        if name in self.nodes:
            raise ValueError(f"duplicate node {name!r}")
        node = NetNode(name=name, site=site, kind=kind, meta=meta)
        self.nodes[name] = node
        self._adj[name] = []
        return node

    def node(self, name: str) -> NetNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise RoutingError(f"unknown node {name!r}") from None

    def add_link(
        self,
        a: str,
        b: str,
        rate: float,
        delay: float = 0.0,
        efficiency: float = 0.94,
        duplex: bool = True,
        rate_back: Optional[float] = None,
    ) -> Tuple[Link, Optional[Link]]:
        """Connect ``a`` → ``b`` (and back when ``duplex``). Returns the link(s)."""
        self.node(a), self.node(b)  # existence check
        fwd = Link(a, b, rate, delay, efficiency)
        self._register(fwd)
        back = None
        if duplex:
            back = Link(b, a, rate_back if rate_back is not None else rate, delay, efficiency)
            self._register(back)
        self._trees.clear()
        self._path_cache.clear()
        self._pathids_cache.clear()
        self._delay_cache.clear()
        self._bneck_cache.clear()
        self._caps_cache = None
        return fwd, back

    def _register(self, link: Link) -> None:
        link.index = len(self.links)
        link.on_rate_change = self._rate_changed
        self.links.append(link)
        self._adj[link.src].append(link)

    def subscribe_rate_changes(self, fn) -> None:
        """Register ``fn(link, old_rate)`` to run after any set_rate."""
        self._rate_listeners.append(fn)

    def _rate_changed(self, link: Link, old_rate: float) -> None:
        self._bneck_cache.clear()
        self._caps_cache = None
        for fn in self._rate_listeners:
            fn(link, old_rate)

    def add_host(
        self,
        name: str,
        switch: str,
        nic_rate: float,
        site: str = "",
        nic_delay: float = 20e-6,
        efficiency: float = 0.94,
        **meta,
    ) -> NetNode:
        """Convenience: create a host and its NIC link to ``switch``."""
        node = self.add_node(name, site=site, kind="host", **meta)
        self.add_link(name, switch, nic_rate, delay=nic_delay, efficiency=efficiency)
        return node

    # -- routing ---------------------------------------------------------------

    def path(self, src: str, dst: str) -> List[Link]:
        """Directed link path src → dst (empty for src == dst)."""
        if src == dst:
            self.node(src)
            return []
        key = (src, dst)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        self.node(src), self.node(dst)
        prev = self._trees.get(src)
        if prev is None:
            prev = self._trees[src] = self._tree(src)
        if dst not in prev:
            raise RoutingError(f"no route {src!r} -> {dst!r}")
        links: List[Link] = []
        cur = dst
        while cur != src:
            link = prev[cur]
            links.append(link)
            cur = link.src
        links.reverse()
        self._path_cache[key] = links
        return links

    def _tree(self, src: str) -> Dict[str, Link]:
        """Predecessor link of every node reachable from ``src``.

        Dijkstra by (delay, hops), ties by node name, run to completion.
        """
        dist: Dict[str, Tuple[float, int]] = {src: (0.0, 0)}
        prev: Dict[str, Link] = {}
        heap: List[Tuple[float, int, str]] = [(0.0, 0, src)]
        visited: set[str] = set()
        while heap:
            d, h, u = heapq.heappop(heap)
            if u in visited:
                continue
            visited.add(u)
            for link in self._adj[u]:
                v = link.dst
                nd, nh = d + link.delay, h + 1
                if v not in dist or (nd, nh) < dist[v]:
                    dist[v] = (nd, nh)
                    prev[v] = link
                    heapq.heappush(heap, (nd, nh, v))
        return prev

    def path_ids(self, src: str, dst: str) -> Tuple[int, ...]:
        """Link indices of the routed path.

        One cached tuple per pair: the flow engine shares it among the
        pair's flows and keys route classes by it.
        """
        key = (src, dst)
        ids = self._pathids_cache.get(key)
        if ids is None:
            ids = tuple(link.index for link in self.path(src, dst))
            self._pathids_cache[key] = ids
        return ids

    def one_way_delay(self, src: str, dst: str) -> float:
        """Sum of propagation delays on the routed path."""
        key = (src, dst)
        d = self._delay_cache.get(key)
        if d is None:
            d = sum(link.delay for link in self.path(src, dst))
            self._delay_cache[key] = d
        return d

    def rtt(self, src: str, dst: str) -> float:
        """Round-trip propagation delay (both directions routed)."""
        return self.one_way_delay(src, dst) + self.one_way_delay(dst, src)

    def bottleneck_rate(self, src: str, dst: str) -> float:
        """Min usable link rate on the path (inf for loopback)."""
        key = (src, dst)
        r = self._bneck_cache.get(key)
        if r is None:
            links = self.path(key[0], key[1])
            r = min(link.usable_rate for link in links) if links else float("inf")
            self._bneck_cache[key] = r
        return r

    def hosts(self, site: Optional[str] = None) -> List[NetNode]:
        """All host nodes, optionally filtered by site."""
        return [
            n
            for n in self.nodes.values()
            if n.kind == "host" and (site is None or n.site == site)
        ]

    def link_capacities(self) -> np.ndarray:
        """Usable capacity vector indexed by link id (for the flow engine).

        Cached (invalidated by ``add_link``/``set_rate``): the flow engine
        reads this before every solve, and handing back the same read-only
        ndarray lets ``FairshareState.set_link_caps`` early-out on identity.
        """
        caps = self._caps_cache
        if caps is None:
            caps = self._caps_cache = np.asarray(
                [link.usable_rate for link in self.links], dtype=float
            )
            caps.flags.writeable = False
        return caps
