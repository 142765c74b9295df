"""Run one workload in this process; print its measurements as one JSON line.

``run.py`` starts one fresh worker process per workload run::

    python3 benchmarks/e2e/worker.py --workload fleet --seed 0 --seconds 10
    python3 benchmarks/e2e/worker.py --workload fleet --seed 0 --seconds 10 --profile

An untraced run repeats episodes -- set-up, then the timed region -- until
the next episode would overrun ``--seconds`` (at least three). Episode 0
draws its inputs from ``--seed`` and each later one from a seed derived
from it (:func:`episode_seed`); both phases are timed in wall and
host-speed seconds (:class:`Metronome`). A profiled run does one episode
under cProfile, covering the import of ``repro``, the set-up and the
timed region, and folds the profile into layers; it times wall seconds
only.

Counters are read from the public attributes of every kernel, flow
engine, NSD service, token manager, page pool and gateway the episode
creates; nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import importlib
import json
import math
import operator
import pstats
import random
import resource
import signal
import statistics
import sys
import time
import weakref
from collections import Counter
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

MIN_EPISODES = 3

#: (module, class, {counter: attribute}) read from every instance an
#: episode creates. ``_seq`` and ``_state`` are the attributes that
#: ``repro.obs.wire`` scrapes too.
COUNTED = (
    ("repro.sim.kernel", "Simulation", {"events": "_seq"}),
    ("repro.net.flow", "FlowEngine", {
        "recomputes": "recomputes", "rate_changes": "rate_changes",
        "flows": "completed_flows", "class_joins": "class_joins",
        "bytes_moved": "bytes_moved", "solves": "_state.solves",
        "solved_rows": "_state.solved_rows",
        "single_flow_solves": "_state.single_flow_solves",
    }),
    ("repro.core.nsd", "NsdService", {
        "blocks_read": "blocks_read", "blocks_written": "blocks_written",
        "retries": "retries",
    }),
    ("repro.core.tokens", "TokenManager", {"grants": "grants", "revokes": "revokes"}),
    ("repro.core.pagepool", "PagePool", {
        "pool_hits": "hits", "pool_misses": "misses", "pool_evictions": "evictions",
    }),
    ("repro.cache.store", "GatewayBlockCache", {
        "cache_hits": "hits", "cache_misses": "misses",
        "cache_evictions": "evictions",
    }),
    ("repro.cache.gateway", "CacheGateway", {
        "served_bytes": "served_bytes", "origin_bytes": "origin_bytes",
        "writeback_stalls": "writeback_stalls",
    }),
)


class Census:
    """Counter totals over the counted classes' instances created while open.

    Instances are held weakly, so the program's memory use is unchanged:
    one freed mid-episode adds its final counts as it goes.
    """

    def __init__(self) -> None:
        self.counted = []
        for module, name, attrs in COUNTED:
            cls = getattr(importlib.import_module(module), name)
            getters = {key: operator.attrgetter(attr) for key, attr in attrs.items()}
            self.counted.append((cls, getters))
        self.totals = Counter({key: 0 for _cls, g in self.counted for key in g})
        self.live = []
        self._ids = set()
        self._saved = []

    def __enter__(self) -> "Census":
        for cls, getters in self.counted:
            init = cls.__init__

            def counted_init(obj, *args, __init=init, __getters=getters, **kwargs):
                __init(obj, *args, **kwargs)
                self.live.append((weakref.ref(obj), __getters))
                self._ids.add(id(obj))

            def finalize(obj, __getters=getters):
                # Instances left over from an earlier census may be freed now.
                if id(obj) in self._ids:
                    self._ids.discard(id(obj))
                    self.totals.update({k: get(obj) for k, get in __getters.items()})

            self._saved.append((cls, init))
            cls.__init__ = counted_init
            cls.__del__ = finalize
        return self

    def __exit__(self, *exc) -> None:
        for cls, init in self._saved:
            cls.__init__ = init
            del cls.__del__

    def read(self) -> Counter:
        """Raw counter totals over every instance, freed or live."""
        gc.disable()  # no instance may be freed halfway through the sum
        try:
            total = Counter(self.totals)
            for ref, getters in self.live:
                obj = ref()
                if obj is not None:
                    total.update({k: get(obj) for k, get in getters.items()})
            return total
        finally:
            gc.enable()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


#: Seconds between reference ticks while a region runs, and one tick's
#: duration inside a workload on a quiet host (the median was 68-103 us
#: across the five workloads on a 2-vCPU Xeon virtual machine). The
#: constant only sets the scale: it makes host-speed seconds read like
#: wall seconds on a quiet host.
TICK_PERIOD = 0.02
TICK_REF_S = 1e-4

_TICK_ARRAY = numpy.arange(64.0)


def tick() -> float:
    """Frozen reference work, the two kinds the simulator does: a heap and
    dict churn in the interpreter, and small numpy array operations. The
    numpy calls take about 60% of the tick: of the splits tried, that
    tracked the slow-downs of ``figs``, ``fleet`` and ``wan_gateway`` best."""
    heap, seen = [], {}
    acc = 0.0
    for i in range(48):
        heapq.heappush(heap, ((i * 7919) % 127, i))
        seen[i & 63] = i
        acc += seen.get(i & 31, 0) * 0.5
    while heap:
        acc += heapq.heappop(heap)[0]
    for _ in range(12):
        acc += float(numpy.minimum(_TICK_ARRAY, acc % 7.0).sum())
    return acc


class Metronome:
    """Times a region in host-speed seconds as well as wall seconds.

    A shared host slows this process by a factor that changes every few
    seconds, as neighbours load the same cores; the process's CPU time
    slows with its wall time. So, every ``TICK_PERIOD`` seconds while the
    region runs, a SIGALRM handler times one ``tick()``, and one more
    (median of three) is timed at each end. Each stretch of the region
    between two ticks counts ``TICK_REF_S`` / (the mean of their
    durations) seconds per wall second: time at quiet-host speed. A change
    to the program moves the stretches, never the ticks, which are frozen
    here. ``ticking=False`` times wall seconds only (the profiled run).
    """

    def __init__(self, ticking: bool = True) -> None:
        self.ticking = ticking
        self.marks = []  # (start, end, tick seconds)

    def _bookend(self) -> None:
        costs, start = [], time.perf_counter()
        for _ in range(3):
            t0 = time.perf_counter()
            tick()
            costs.append(time.perf_counter() - t0)
        self.marks.append((start, time.perf_counter(), statistics.median(costs)))

    def _on_alarm(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        tick()
        t1 = time.perf_counter()
        self.marks.append((t0, t1, t1 - t0))

    def __enter__(self) -> "Metronome":
        if self.ticking:
            self._bookend()
            self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, TICK_PERIOD, TICK_PERIOD)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        if self.ticking:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._saved)
            self._bookend()

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def host_s(self) -> float:
        """The region's duration at quiet-host speed (wall seconds if not ticking)."""
        if not self.ticking:
            return self.wall_s
        total = 0.0
        for (_s0, end, c0), (start, _e1, c1) in zip(self.marks, self.marks[1:]):
            total += (start - end) * 2 * TICK_REF_S / (c0 + c1)
        return total


class Spans:
    """In-memory spans of the worker's own phases, in seconds from start."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.rows = []

    def add(self, name: str, start: float, end: float, parent=None) -> int:
        self.rows.append({"id": len(self.rows), "name": name, "parent": parent,
                          "start": start - self.t0, "end": end - self.t0})
        return len(self.rows) - 1


def episode_seed(seed: int, index: int) -> int:
    """The input seed of a run's ``index``-th episode.

    Episode 0 uses the run's own seed; each later one draws fresh inputs,
    so a run's median covers several inputs and one seed's luck (how far
    ``lan_read``'s readers drift apart, say) moves it less.
    """
    return seed if index == 0 else random.Random(f"{seed}.{index}").getrandbits(31)


def episode(setup, seed: int, spans: Spans, profiles=None) -> dict:
    """One set-up plus timed region; ``profiles`` = (set-up, timed) cProfiles."""
    gc.collect()
    ticking = not profiles
    if profiles:
        profiles[0].enable()
    with Census() as census:
        with Metronome(ticking) as set_up:
            timed = setup(seed)
        if profiles:
            profiles[0].disable()
        before = census.read()
        if profiles:
            profiles[1].enable()
        with Metronome(ticking) as region:
            outcome = timed()
        if profiles:
            profiles[1].disable()
        after = census.read()
    top = spans.add("episode", set_up.start, region.end)
    spans.add("setup", set_up.start, set_up.end, top)
    spans.add("timed", region.start, region.end, top)
    failures = list(outcome.check())
    if outcome.completed != outcome.attempted:
        failures.append(f"completed {outcome.completed} of {outcome.attempted} ops")
    outputs = dict(outcome.outputs)
    for kind, values in outcome.latencies.items():
        if values:
            outputs[f"{kind}.p50_s"] = percentile(values, 0.50)
            outputs[f"{kind}.p99_s"] = percentile(values, 0.99)
    return {
        "setup_s": set_up.host_s,
        "wall_s": region.host_s,
        "raw_setup_s": set_up.wall_s,
        "raw_wall_s": region.wall_s,
        "attempted": outcome.attempted,
        "completed": outcome.completed,
        "counters": {k: after[k] - before[k] for k in after},
        "outputs": outputs,
        "failures": failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"worker: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spans = Spans()
    profiles = (cProfile.Profile(), cProfile.Profile()) if args.profile else None
    t_import = time.perf_counter()
    if profiles:
        profiles[0].enable()
    import scenarios

    if profiles:
        profiles[0].disable()
    spans.add("import", t_import, time.perf_counter())
    if args.workload not in scenarios.WORKLOADS:
        print(f"worker: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    setup = scenarios.WORKLOADS[args.workload]
    result = {"workload": args.workload, "seed": args.seed, "profiled": bool(profiles)}
    episodes = []
    t_start = time.perf_counter()
    while True:
        seed = episode_seed(args.seed, len(episodes))
        episodes.append({"seed": seed, **episode(setup, seed, spans, profiles)})
        if len(episodes) == 1:
            # Later episodes only add allocator high-water noise.
            result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if profiles:
            break
        elapsed = time.perf_counter() - t_start
        if len(episodes) >= MIN_EPISODES and elapsed * (1 + 1 / len(episodes)) > args.seconds:
            break
    result["episodes"] = episodes
    if profiles:
        from layers import Classifier, fold, nsd_rpcs

        classify = Classifier(SRC / "repro", HERE)
        both = pstats.Stats(profiles[0])
        both.add(profiles[1])
        result["layers"] = fold(both.stats, classify)
        result["profiled_s"] = sum(entry[2] for entry in both.stats.values())
        result["unmapped"] = sorted(classify.unmapped)
        result["nsd_rpcs"] = nsd_rpcs(pstats.Stats(profiles[1]).stats)
    result["spans"] = spans.rows
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
