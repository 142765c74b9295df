"""Trace-driven workload replay.

Applications the paper could not ship (proprietary codes, user jobs) can be
represented as I/O traces and replayed against any mount. The format is a
plain text file / iterable of records, one operation per line::

    # time  op      path            offset  length
    0.00    open    /data/a.h5      -       -
    0.05    write   /data/a.h5      0       1048576
    1.20    read    /data/a.h5      0       65536
    2.00    close   /data/a.h5      -       -

* ``time`` — earliest simulation-relative start time (seconds); the replay
  never starts an op before its stamp, but an op may start late if the
  previous one is still running (closed-loop replay, like a real app).
* ``op`` — open / read / write / fsync / close / mkdir / unlink.
* fields that do not apply carry ``-``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Union

from repro.sim.kernel import Event
from repro.workloads.base import WorkloadResult, payload_for

OPS = ("open", "read", "write", "fsync", "close", "mkdir", "unlink")


@dataclass(frozen=True)
class TraceOp:
    time: float
    op: str
    path: str
    offset: int = 0
    length: int = 0

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"unknown trace op {self.op!r} (known: {OPS})")
        if self.time < 0 or self.offset < 0 or self.length < 0:
            raise ValueError(f"negative field in trace op {self}")


def parse_trace(lines: Iterable[str]) -> List[TraceOp]:
    """Parse the text format; '#' comments and blank lines are skipped."""
    ops: List[TraceOp] = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 5:
            raise ValueError(f"trace line {lineno}: expected 5 fields, got {len(fields)}")
        t, op, path, offset, length = fields
        ops.append(
            TraceOp(
                time=float(t),
                op=op,
                path=path,
                offset=0 if offset == "-" else int(offset),
                length=0 if length == "-" else int(length),
            )
        )
    return ops


class TraceReplay:
    """Replay a trace against one mount (closed loop, per-file handles)."""

    def __init__(self, mount, trace: Union[str, Iterable[str], List[TraceOp]]) -> None:
        if isinstance(trace, str):
            trace = trace.splitlines()
        ops = list(trace)
        if ops and not isinstance(ops[0], TraceOp):
            ops = parse_trace(ops)  # type: ignore[arg-type]
        if not ops:
            raise ValueError("empty trace")
        times = [op.time for op in ops]
        if times != sorted(times):
            raise ValueError("trace timestamps must be non-decreasing")
        self.mount = mount
        self.ops: List[TraceOp] = ops  # type: ignore[assignment]

    def run(self) -> Event:
        """Replay; event value is a :class:`WorkloadResult`."""
        return self.mount.sim.process(self._run(), name="trace-replay")

    def _run(self):
        sim = self.mount.sim
        m = self.mount
        t0 = sim.now
        result = WorkloadResult(name="replay")
        handles = {}
        for op in self.ops:
            target = t0 + op.time
            if sim.now < target:
                yield sim.timeout(target - sim.now)
            if op.op == "open":
                handles[op.path] = yield m.open(op.path, "r+", create=True)
            elif op.op == "close":
                handle = handles.pop(op.path, None)
                if handle is None:
                    raise ValueError(f"trace closes unopened file {op.path!r}")
                yield m.close(handle)
            elif op.op == "fsync":
                yield m.fsync(self._handle(handles, op))
            elif op.op == "read":
                data = yield m.pread(self._handle(handles, op), op.offset, op.length)
                result.bytes_read += data if isinstance(data, int) else len(data)
            elif op.op == "write":
                yield m.pwrite(
                    self._handle(handles, op), op.offset,
                    payload_for(m, op.length),
                )
                result.bytes_written += op.length
            elif op.op == "mkdir":
                yield m.mkdir(op.path)
            elif op.op == "unlink":
                yield m.unlink(op.path)
            result.ops += 1
        # close any handles the trace forgot (flushes dirty data)
        for handle in handles.values():
            yield m.close(handle)
        result.elapsed = sim.now - t0
        return result

    @staticmethod
    def _handle(handles, op: TraceOp):
        handle = handles.get(op.path)
        if handle is None:
            raise ValueError(f"trace op {op.op!r} on unopened file {op.path!r}")
        return handle
