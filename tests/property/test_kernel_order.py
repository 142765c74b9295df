"""Property test: the fast-path kernel preserves event firing order.

``repro.sim.kernel`` grew several fast paths (immediate-resume trampoline,
zero-delay FIFO lane, lightweight callback entries — see ARCHITECTURE.md
§10) that are each *argued* order-identical to the
plain single-heap kernel. This suite checks the argument empirically:
``_reference_kernel.py`` is a frozen copy of the pre-optimization kernel,
and both kernels replay the same randomized process/timeout/AllOf/AnyOf/
delayed-trigger/interrupt graph. The recorded traces — every op
completion with its simulated timestamp, plus final clock and total
event count — must match exactly. Any divergence is a determinism
regression, not a tolerance question, so comparisons are ``==`` on full
traces.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.kernel as fast_kernel
from tests.property import _reference_kernel as ref_kernel

# Plenty of zeros and repeated values: ties at equal simulated time are
# exactly where seq ordering — and therefore the fast paths —
# can silently diverge.
DELAYS = [0.0, 0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 2.5]

delay_st = st.sampled_from(DELAYS)

op_st = st.one_of(
    st.tuples(st.just("timeout"), delay_st),
    st.tuples(st.just("spawn"), st.integers(0, 3)),
    st.tuples(st.just("shared"), st.integers(0, 7)),
    st.tuples(st.just("allof"), st.lists(delay_st, min_size=1, max_size=3)),
    st.tuples(st.just("anyof"), st.lists(delay_st, min_size=1, max_size=3)),
    st.tuples(st.just("callback"), delay_st),
    st.tuples(st.just("fire_after"), delay_st),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
)

scenario_st = st.tuples(
    st.lists(st.lists(op_st, min_size=1, max_size=6), min_size=1, max_size=6),
    st.lists(delay_st, min_size=1, max_size=4),  # shared-event trigger times
)


def run_scenario(kernel, procs, trigger_delays):
    """Replay one op graph on ``kernel``; return (trace, final clock, seq)."""
    sim = kernel.Simulation()
    trace = []
    shared = [sim.event(name=f"sh{i}") for i in range(len(trigger_delays))]

    def trigger(i, d):
        yield sim.timeout(d)
        shared[i].succeed(i)

    for i, d in enumerate(trigger_delays):
        sim.process(trigger(i, d), name=f"trig{i}")

    def leaf(n):
        for _ in range(n):
            yield sim.timeout(0.0)
        return n

    handles = {}

    def worker(pid, ops):
        for j, (kind, arg) in enumerate(ops):
            try:
                if kind == "timeout":
                    yield sim.timeout(arg)
                elif kind == "spawn":
                    got = yield sim.process(leaf(arg), name=f"leaf{pid}.{j}")
                    trace.append((sim.now, "child", pid, j, got))
                elif kind == "shared":
                    got = yield shared[arg % len(shared)]
                    trace.append((sim.now, "shared", pid, j, got))
                elif kind == "allof":
                    yield sim.all_of([sim.timeout(d) for d in arg])
                elif kind == "anyof":
                    yield sim.any_of([sim.timeout(d) for d in arg])
                elif kind == "callback":
                    sim.schedule_callback(
                        arg,
                        lambda p=pid, k=j: trace.append((sim.now, "cb", p, k)),
                        name=f"cb{pid}.{j}",
                    )
                elif kind == "fire_after":
                    evt = sim.event(name=f"fa{pid}.{j}")
                    got = yield evt.succeed_after(arg, (pid, j))
                    trace.append((sim.now, "fired", pid, j, got))
                elif kind == "interrupt":
                    yield sim.timeout(0.0)
                    target = handles[arg % len(handles)]
                    if target.is_alive:  # interrupt() raises once triggered
                        target.interrupt(cause=pid)
                trace.append((sim.now, "op", pid, j, kind))
            except kernel.Interrupt as exc:
                trace.append((sim.now, "int", pid, j, exc.cause))
    for pid, ops in enumerate(procs):
        handles[pid] = sim.process(worker(pid, ops), name=f"w{pid}")
    sim.run()
    return trace, sim.now, sim._seq


@settings(max_examples=80, deadline=None)
@given(scenario=scenario_st)
def test_fast_kernel_matches_reference_order(scenario):
    procs, trigger_delays = scenario
    fast = run_scenario(fast_kernel, procs, trigger_delays)
    ref = run_scenario(ref_kernel, procs, trigger_delays)
    assert fast[0] == ref[0], "event firing order diverged from reference"
    assert fast[1] == ref[1], "final simulated clock diverged"
    # Stronger than order: every fast path must consume exactly the seq
    # slots the reference kernel did (the bit-identity argument).
    assert fast[2] == ref[2], "kernel sequence-number stream diverged"
