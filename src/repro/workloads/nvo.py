"""NVO: database-style partial access to a huge catalog.

§1: the National Virtual Observatory dataset is "approximately 50 Terabytes
and is used as input by several applications ... the application may treat
the very large dataset more as a database, not requiring anywhere near the
full amount of data, but instead retrieving individual pieces of very
large files". Queries hit random offsets; a Zipf-ish skew concentrates on
popular sky regions so the client cache sees realistic reuse.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.sim.kernel import Event
from repro.workloads.base import WorkloadResult


class NvoQueryStream:
    """A stream of cutout queries against one catalog file."""

    def __init__(
        self,
        mount,
        catalog_path: str,
        queries: int,
        bytes_per_query: int,
        rng: np.random.Generator,
        think_seconds: float = 0.0,
        zipf_regions: int = 0,
    ) -> None:
        if queries < 1 or bytes_per_query < 1:
            raise ValueError("queries and bytes_per_query must be >= 1")
        self.mount = mount
        self.catalog_path = catalog_path
        self.queries = queries
        self.bytes_per_query = bytes_per_query
        self.rng = rng
        self.think_seconds = think_seconds
        self.zipf_regions = zipf_regions

    def run(self) -> Event:
        return self.mount.sim.process(self._run(), name="nvo")

    def _offsets(self, size: int):
        span = max(1, size - self.bytes_per_query)
        if self.zipf_regions > 0:
            # skewed popularity: region ~ Zipf, offset uniform inside it
            region_size = max(1, size // self.zipf_regions)
            ranks = self.rng.zipf(1.5, size=self.queries)
            regions = (ranks - 1) % self.zipf_regions
            inner = self.rng.integers(0, region_size, size=self.queries)
            offsets = np.minimum(regions * region_size + inner, span)
        else:
            offsets = self.rng.integers(0, span, size=self.queries)
        return [int(o) for o in offsets]

    def _run(self) -> Generator[Event, None, WorkloadResult]:
        sim = self.mount.sim
        t0 = sim.now
        result = WorkloadResult(name="nvo")
        handle = yield self.mount.open(self.catalog_path, "r")
        for offset in self._offsets(handle.inode.size):
            data = yield self.mount.pread(handle, offset, self.bytes_per_query)
            result.bytes_read += data if isinstance(data, int) else len(data)
            result.ops += 1
            if self.think_seconds:
                yield sim.timeout(self.think_seconds)
        yield self.mount.close(handle)
        result.elapsed = sim.now - t0
        result.extra["cache_hits"] = float(self.mount.pool.hits)
        return result
