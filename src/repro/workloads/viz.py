"""Visualization readers: streaming, network-limited, restartable.

The SC'03/'04 demonstrations visualized Enzo output at SDSC and NCSA; the
Fig 5 trace shows a characteristic dip where "the visualization application
terminat[ed] normally as it ran out of data and was restarted". ``VizReader``
reproduces that: stream a file, optionally exit at a given simulation time
and restart after a pause.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.sim.kernel import Event
from repro.workloads.base import WorkloadResult


class VizReader:
    """Streams a file as fast as the path allows."""

    def __init__(
        self,
        mount,
        path: str,
        chunk: int = 0,
        restart_at: Optional[float] = None,
        restart_pause: float = 10.0,
        passes: int = 1,
    ) -> None:
        if passes < 1:
            raise ValueError("passes must be >= 1")
        self.mount = mount
        self.path = path
        self.chunk = chunk or mount.fs.block_size * 2
        self.restart_at = restart_at
        self.restart_pause = restart_pause
        self.passes = passes

    def run(self) -> Event:
        return self.mount.sim.process(self._run(), name=f"viz:{self.path}")

    def _run(self) -> Generator[Event, None, WorkloadResult]:
        sim = self.mount.sim
        t0 = sim.now
        result = WorkloadResult(name="viz")
        restarted = False
        for _pass in range(self.passes):
            handle = yield self.mount.open(self.path, "r")
            size = handle.inode.size
            pos = 0
            while pos < size:
                if (
                    self.restart_at is not None
                    and not restarted
                    and sim.now >= self.restart_at
                ):
                    # application exits normally and is restarted (Fig 5 dip)
                    restarted = True
                    yield self.mount.close(handle)
                    yield sim.timeout(self.restart_pause)
                    handle = yield self.mount.open(self.path, "r")
                    handle.seek(pos)
                n = min(self.chunk, size - pos)
                data = yield self.mount.pread(handle, pos, n)
                result.bytes_read += data if isinstance(data, int) else len(data)
                result.ops += 1
                pos += n
            yield self.mount.close(handle)
            # fresh pass must re-read from the NSDs, not the page pool
            self.mount.pool.invalidate(handle.inode.ino)
        result.elapsed = sim.now - t0
        result.extra["restarted"] = 1.0 if restarted else 0.0
        return result
