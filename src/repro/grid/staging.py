"""The E7 comparison: staged jobs versus direct GFS access.

§1 of the paper motivates the GFS with three observations about wholesale
data movement:

1. the chosen site "may not be able to guarantee enough room to receive a
   required dataset",
2. "the necessary transfer rates may not be achievable", and
3. "in many cases the application may treat the very large dataset more as
   a database ... retrieving individual pieces of very large files".

:class:`StagedJob` models the old mode: reserve scratch, GridFTP the whole
dataset in, compute, GridFTP results out. :class:`DirectGfsJob` models the
new mode: reserve compute only, read just the accessed fraction over the
GFS (paying WAN latency per miss), write output directly back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.grid.gridftp import GridFtp
from repro.grid.scheduler import GurScheduler, ReservationError
from repro.sim.kernel import Event, Simulation
from repro.workloads.base import payload_for


@dataclass
class JobReport:
    """What one job run cost."""

    mode: str
    site: str
    stage_in_time: float = 0.0
    compute_time: float = 0.0
    stage_out_time: float = 0.0
    total_time: float = 0.0
    bytes_moved: float = 0.0
    time_to_first_byte: float = 0.0
    admitted: bool = True
    refusal: str = ""


@dataclass
class JobSpec:
    """A data-intensive grid job."""

    dataset_bytes: float
    output_bytes: float
    compute_seconds: float
    nodes: int = 8
    #: fraction of the dataset the computation actually touches (§1's
    #: "retrieving individual pieces of very large files")
    access_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.dataset_bytes < 0 or self.output_bytes < 0:
            raise ValueError("sizes must be non-negative")
        if self.compute_seconds < 0:
            raise ValueError("compute_seconds must be non-negative")
        if not 0 <= self.access_fraction <= 1:
            raise ValueError("access_fraction must be in [0, 1]")


class StagedJob:
    """Classic mode: stage in, compute, stage out."""

    def __init__(
        self,
        sim: Simulation,
        scheduler: GurScheduler,
        gridftp: GridFtp,
        data_home: str,  # node holding the canonical dataset
        compute_node: str,  # node at the compute site
        site: str,
        streams: int = 8,
    ) -> None:
        self.sim = sim
        self.scheduler = scheduler
        self.gridftp = gridftp
        self.data_home = data_home
        self.compute_node = compute_node
        self.site = site
        self.streams = streams

    def run(self, spec: JobSpec) -> Event:
        return self.sim.process(self._run(spec), name="staged-job")

    def _run(self, spec: JobSpec) -> Generator[Event, None, JobReport]:
        t0 = self.sim.now
        report = JobReport(mode="staged", site=self.site)
        try:
            reservation = self.scheduler.reserve(
                self.site, spec.nodes, scratch=spec.dataset_bytes + spec.output_bytes
            )
        except ReservationError as exc:
            report.admitted = False
            report.refusal = str(exc)
            yield self.sim.timeout(0.0)
            return report
        try:
            # stage in the WHOLE dataset, regardless of access fraction
            res_in = yield self.gridftp.transfer(
                self.data_home, self.compute_node, spec.dataset_bytes,
                streams=self.streams, tags=("gridftp", "stage-in"),
            )
            report.stage_in_time = res_in.elapsed
            report.time_to_first_byte = self.sim.now - t0  # compute starts now
            yield self.sim.timeout(spec.compute_seconds)
            report.compute_time = spec.compute_seconds
            res_out = yield self.gridftp.transfer(
                self.compute_node, self.data_home, spec.output_bytes,
                streams=self.streams, tags=("gridftp", "stage-out"),
            )
            report.stage_out_time = res_out.elapsed
            report.bytes_moved = spec.dataset_bytes + spec.output_bytes
        finally:
            self.scheduler.release(reservation)
        report.total_time = self.sim.now - t0
        return report


class DirectGfsJob:
    """GFS mode: compute against the central filesystem over the WAN."""

    def __init__(
        self,
        sim: Simulation,
        scheduler: GurScheduler,
        mount,  # a MountedFs at the compute site
        site: str,
        io_chunk: int = 8 << 20,
    ) -> None:
        self.sim = sim
        self.scheduler = scheduler
        self.mount = mount
        self.site = site
        self.io_chunk = io_chunk

    def run(self, spec: JobSpec, dataset_path: str, output_path: str) -> Event:
        return self.sim.process(
            self._run(spec, dataset_path, output_path), name="gfs-job"
        )

    def _run(self, spec: JobSpec, dataset_path: str, output_path: str):
        t0 = self.sim.now
        report = JobReport(mode="gfs", site=self.site)
        try:
            reservation = self.scheduler.reserve(self.site, spec.nodes, scratch=0.0)
        except ReservationError as exc:
            report.admitted = False
            report.refusal = str(exc)
            yield self.sim.timeout(0.0)
            return report
        try:
            handle = yield self.mount.open(dataset_path, "r")
            to_read = int(spec.dataset_bytes * spec.access_fraction)
            first = True
            pos = 0
            while pos < to_read:
                chunk = min(self.io_chunk, to_read - pos)
                yield self.mount.pread(handle, pos, chunk)
                if first:
                    report.time_to_first_byte = self.sim.now - t0
                    first = False
                pos += chunk
            yield self.mount.close(handle)
            # interleaved compute (the reads above already overlap readahead)
            yield self.sim.timeout(spec.compute_seconds)
            report.compute_time = spec.compute_seconds
            out = yield self.mount.open(output_path, "w", create=True)
            written = 0
            while written < spec.output_bytes:
                chunk = int(min(self.io_chunk, spec.output_bytes - written))
                yield self.mount.write(out, payload_for(self.mount, chunk))
                written += chunk
            yield self.mount.close(out)
            report.bytes_moved = to_read + spec.output_bytes
        finally:
            self.scheduler.release(reservation)
        report.total_time = self.sim.now - t0
        return report
