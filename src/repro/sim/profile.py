"""Lightweight simulator self-profiling: named counters and wall timers.

The flow engine and fair-share solver are the simulator's hot path; this
module gives them (and anything else) near-zero-cost counters so a run can
report *how much solver work it did* — solves, solved flow rows, matrix
rebuilds, kernel events — instead of asserting speedups blind.

Disabled by default: ``count()`` is a single attribute check when off, so
instrumentation can live permanently in hot loops. Enable around a region::

    from repro.sim.profile import PROFILE

    PROFILE.reset()
    PROFILE.enable()
    ...  # run the simulation
    PROFILE.disable()
    print(PROFILE.report())

``python -m repro report --profile`` wraps a whole report run this way.

Counter namespaces in use:

* ``kernel.events`` — events popped off the simulation heap;
* ``kernel.timeout_pool_hits`` — zero-delay timeouts served from the
  kernel's recycling pool instead of a fresh allocation;
* ``kernel.guard_fastpath`` — NSD RPC legs that early-outed of the
  partition/health guard (no faults active) without building the
  generator machinery;
* ``flowengine.recomputes`` / ``flowengine.active_rows`` /
  ``flowengine.rate_changes`` — recompute passes, active flows seen by
  them (what a full re-solve would have touched), flows whose rate
  actually changed;
* ``fairshare.solves`` / ``fairshare.solved_rows`` — per-component
  water-filling solves of two or more live columns and the columns they
  solved;
* ``fairshare.single_flow_solves`` — dirty components of exactly one
  live column (solved by the scalar routine like any small component);
* ``fairshare.matrix_growths`` / ``fairshare.partition_rebuilds`` —
  path-table column doublings and partition rebuilds;
* ``nsd.coalesced_rpcs`` / ``nsd.coalesced_blocks`` — block RPCs of
  more than one block and the blocks they carried; their ratio is the
  realized coalescing factor (zero unless a mount sets
  ``max_coalesce > 1`` or a caching gateway batches misses).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator


class Profile:
    """A named bundle of counters and accumulated wall-clock timers."""

    __slots__ = ("enabled", "counters", "timers", "_timed_depth")

    def __init__(self) -> None:
        self.enabled = False
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, float] = {}
        # Re-entrancy depth per timer name: only the outermost timed("x")
        # accumulates, so nesting cannot double-count wall time.
        self._timed_depth: Dict[str, int] = {}

    # -- control ------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.counters.clear()
        self.timers.clear()
        self._timed_depth.clear()

    # -- recording ----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (no-op when disabled)."""
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + n

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Accumulate wall time of the ``with`` body into timer ``name``.

        Re-entrant: a nested ``timed("x")`` inside an open ``timed("x")``
        is a no-op, so recursive call sites count their wall time once.
        """
        if not self.enabled:
            yield
            return
        depth = self._timed_depth.get(name, 0)
        self._timed_depth[name] = depth + 1
        t0 = time.perf_counter() if depth == 0 else 0.0
        try:
            yield
        finally:
            # pop-with-default keeps a reset() inside the span harmless.
            remaining = self._timed_depth.pop(name, 1) - 1
            if remaining > 0:
                self._timed_depth[name] = remaining
            else:
                self.timers[name] = (
                    self.timers.get(name, 0.0) + time.perf_counter() - t0
                )

    # -- reporting ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict copy (for JSON emission / assertions).

        Delegates to :func:`repro.obs.export.profile_snapshot` so
        ``report --profile-json`` output follows the same schema the CI
        validators (:func:`repro.obs.export.validate_profile_snapshot`)
        check.
        """
        from repro.obs.export import profile_snapshot

        return profile_snapshot(self)

    def report(self) -> str:
        """Human-readable table of all counters and timers."""
        lines = ["-- profile --"]
        if not self.counters and not self.timers:
            lines.append("(nothing recorded — was profiling enabled?)")
        for name in sorted(self.counters):
            lines.append(f"  {name:<32} {self.counters[name]:>14,}")
        for name in sorted(self.timers):
            lines.append(f"  {name:<32} {self.timers[name]:>13.3f}s")
        return "\n".join(lines)


#: Process-wide default profile. Library code records into this instance;
#: harnesses enable/reset it around the region they care about.
PROFILE = Profile()
