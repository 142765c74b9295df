"""Fold a cProfile run into the simulator's layers by module path.

A layer is a group of modules under ``src/repro``. Each profiled
function's own time (``tottime``) goes to the layer of its module. Time
in code outside ``repro`` -- C builtins, numpy, the standard library --
goes to the ``repro`` code that called it, split in proportion to the
time ``pstats`` records per caller; the walk continues upward through
callers that are themselves outside ``repro``. The benchmark's own files
(the load generators) form the ``bench`` layer, and so does time with no
``repro`` caller at all.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Dict, Optional, Tuple

#: Report order. ``bench`` is the benchmark's own code, not the simulator.
LAYERS = (
    "sim.kernel", "net.flow", "net.fairshare", "net.topology", "net.message",
    "core.client", "core.nsd", "core.tokens", "core.fs", "storage", "auth",
    "cache", "obs", "experiments", "bench",
)

#: Module path under ``repro`` (no ``.py``) -> layer. The longest matching
#: prefix wins, so a package entry covers its other modules and a new
#: module lands in its package's layer. Packages with no entry here
#: (faults, grid, hsm) are unmapped: seeing one in a profile is an error.
MODULE_LAYER = {
    "__init__": "experiments",
    "__main__": "experiments",
    "sim": "sim.kernel",  # kernel, resources, rand
    "sim/trace": "obs",
    "sim/profile": "obs",
    "sim/monitor": "obs",
    "net": "net.flow",  # flow, tcp, link, fcip
    "net/fairshare": "net.fairshare",
    "net/topology": "net.topology",
    "topology": "net.topology",
    "net/message": "net.message",
    "core": "core.fs",  # filesystem, namespace, allocation, inode, blocks,
    # cluster, multicluster, replication
    "core/client": "core.client",
    "core/pagepool": "core.client",
    "core/nsd": "core.nsd",
    "core/tokens": "core.tokens",
    "storage": "storage",
    "auth": "auth",
    "cache": "cache",
    "obs": "obs",
    "experiments": "experiments",
    "util": "experiments",
    "workloads": "experiments",
}

Func = Tuple[str, int, str]


class Classifier:
    """Maps a profiled file name to a layer (None: outside repro)."""

    def __init__(self, repro_dir: Path, bench_dir: Path) -> None:
        self.repro = str(repro_dir.resolve()) + "/"
        self.bench = str(bench_dir.resolve()) + "/"
        self.unmapped: set = set()

    def layer_of(self, filename: str) -> Optional[str]:
        if filename.startswith(self.bench):
            return "bench"
        if not filename.startswith(self.repro):
            return None
        module = filename[len(self.repro):].removesuffix(".py")
        parts = module.split("/")
        for end in range(len(parts), 0, -1):
            layer = MODULE_LAYER.get("/".join(parts[:end]))
            if layer is not None:
                return layer
        self.unmapped.add("repro/" + module)
        return "bench"


def fold(stats: Dict[Func, tuple], classify: Classifier) -> Dict[str, float]:
    """Self seconds per layer from ``pstats.Stats(...).stats``."""
    shares: Dict[Func, Dict[str, float]] = {}

    def share_of(func: Func, walking: set) -> Dict[str, float]:
        """How ``func``'s own time divides among layers (sums to 1)."""
        cached = shares.get(func)
        if cached is not None:
            return cached
        layer = classify.layer_of(func[0])
        if layer is not None:
            result = {layer: 1.0}
        else:
            callers = stats[func][4] if func in stats else {}
            acc: Dict[str, float] = defaultdict(float)
            total = 0.0
            walking.add(func)
            for by_tottime in (True, False):
                for caller, edge in callers.items():
                    if caller in walking:
                        continue
                    # edge = (calls, primitive calls, tottime, cumtime) of
                    # func when called from caller; fall back to call counts
                    # when no caller accrued measurable time.
                    weight = edge[2] if by_tottime else edge[0]
                    if weight <= 0:
                        continue
                    for lay, part in share_of(caller, walking).items():
                        acc[lay] += weight * part
                    total += weight
                if total > 0:
                    break
            walking.discard(func)
            result = {k: v / total for k, v in acc.items()} if total else {"bench": 1.0}
        shares[func] = result
        return result

    layers = {name: 0.0 for name in LAYERS}
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        for layer, part in share_of(func, set()).items():
            layers[layer] += tottime * part
    return layers


def nsd_rpcs(stats: Dict[Func, tuple]) -> int:
    """Block RPCs issued through ``NsdService.read_block[s]``/``write_block[s]``.

    A one-block ``read_blocks``/``write_blocks`` call delegates to the
    per-block method; that is one RPC, so calls between the four methods
    are not counted again.
    """
    names = {"read_block", "read_blocks", "write_block", "write_blocks"}
    entries = {
        func: entry for func, entry in stats.items()
        if func[2] in names and func[0].endswith("repro/core/nsd.py")
    }
    calls = sum(entry[1] for entry in entries.values())
    nested = sum(
        edge[0] for entry in entries.values()
        for caller, edge in entry[4].items() if caller in entries
    )
    return calls - nested
