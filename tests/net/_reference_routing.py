"""Per-pair early-exit Dijkstra: the routing oracle for ``Network.path``.

This is the search ``Network.path`` ran for each new (src, dst) pair
before routes came from one shortest-path tree per source. It stops as
soon as ``dst`` settles; the tree runs the same search to completion, so
both must return the same link list, tie-breaks included.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

from repro.net import Link, Network
from repro.net.topology import RoutingError


def early_exit_path(net: Network, src: str, dst: str) -> List[Link]:
    """Directed link path src → dst (empty for src == dst)."""
    if src == dst:
        net.node(src)
        return []
    net.node(src), net.node(dst)
    # Dijkstra by (delay, hops).
    dist: Dict[str, Tuple[float, int]] = {src: (0.0, 0)}
    prev: Dict[str, Link] = {}
    heap: List[Tuple[float, int, str]] = [(0.0, 0, src)]
    visited: set[str] = set()
    while heap:
        d, h, u = heapq.heappop(heap)
        if u in visited:
            continue
        visited.add(u)
        if u == dst:
            break
        for link in net._adj[u]:
            v = link.dst
            nd, nh = d + link.delay, h + 1
            if v not in dist or (nd, nh) < dist[v]:
                dist[v] = (nd, nh)
                prev[v] = link
                heapq.heappush(heap, (nd, nh, v))
    if dst not in prev:
        raise RoutingError(f"no route {src!r} -> {dst!r}")
    links: List[Link] = []
    cur = dst
    while cur != src:
        link = prev[cur]
        links.append(link)
        cur = link.src
    links.reverse()
    return links
