"""Edge cases of the event kernel that the main tests don't reach."""

import math

import pytest

from repro.sim import Interrupt, Simulation, SimulationError


class TestLateFailures:
    def test_anyof_defuses_late_child_failure(self):
        sim = Simulation()
        fast = sim.event()
        slow = sim.event()

        def proc(sim):
            result = yield sim.any_of([fast, slow])
            return list(result.values())

        p = sim.process(proc(sim))
        fast.succeed("winner")
        sim.run()
        # the loser fails AFTER the condition decided: must not crash the sim
        slow.fail(RuntimeError("late loser"))
        sim.run()
        assert p.value == ["winner"]

    def test_allof_defuses_second_failure(self):
        sim = Simulation()
        a, b = sim.event(), sim.event()

        def proc(sim):
            try:
                yield sim.all_of([a, b])
            except RuntimeError as exc:
                return str(exc)

        p = sim.process(proc(sim))
        a.fail(RuntimeError("first"))
        sim.run()
        b.fail(RuntimeError("second"))
        sim.run()
        assert p.value == "first"


class TestInterruptEdges:
    def test_interrupt_while_waiting_on_event(self):
        sim = Simulation()
        never = sim.event()

        def consumer(sim):
            try:
                yield never
            except Interrupt:
                return "freed"

        p = sim.process(consumer(sim))

        def killer(sim):
            yield sim.timeout(1)
            p.interrupt()

        sim.process(killer(sim))
        sim.run()
        assert p.value == "freed"

    def test_interrupt_racing_completion_is_safe(self):
        sim = Simulation()

        def worker(sim):
            yield sim.timeout(1.0)
            return "done"

        p = sim.process(worker(sim))

        def racer(sim):
            yield sim.timeout(1.0)  # same instant the worker finishes
            if p.is_alive:
                p.interrupt()

        sim.process(racer(sim))
        sim.run()
        assert p.value == "done"


class TestRunSemantics:
    def test_run_until_already_processed_event(self):
        sim = Simulation()
        evt = sim.event()
        evt.succeed(7)
        sim.run()
        assert sim.run(until=evt) == 7  # immediate, no deadlock

    def test_run_until_time_advances_clock_exactly(self):
        sim = Simulation()
        sim.timeout(10.0)
        sim.run(until=3.25)
        assert sim.now == 3.25

    def test_schedule_callback_ordering(self):
        sim = Simulation()
        order = []
        sim.schedule_callback(1.0, lambda: order.append("a"))
        sim.schedule_callback(1.0, lambda: order.append("b"))
        sim.schedule_callback(0.5, lambda: order.append("c"))
        sim.run()
        assert order == ["c", "a", "b"]


class TestSchedulingBoundary:
    """Negative and NaN delays fail *at the scheduling call*, naming the
    culprit: a NaN heap key would silently break the heap order."""

    def test_schedule_callback_negative_delay_names_callback(self):
        sim = Simulation()
        with pytest.raises(ValueError, match=r"-1\.0.*tick"):
            sim.schedule_callback(-1.0, lambda: None, name="tick")

    def test_schedule_callback_nan_delay_names_callback(self):
        sim = Simulation()
        with pytest.raises(ValueError, match=r"negative or NaN.*nan.*tick"):
            sim.schedule_callback(math.nan, lambda: None, name="tick")

    def test_timeout_negative_delay_message(self):
        sim = Simulation()
        with pytest.raises(ValueError, match="negative"):
            sim.timeout(-1e-9)

    def test_nan_timeout_cannot_reorder_the_heap(self):
        # Waits of 2.0, NaN, 1.0 and 3.0 s used to fire at 1.0, 2.0, NaN
        # and 3.0 with no error.
        sim = Simulation()
        fired = []

        def waiter(delay):
            yield sim.timeout(delay)
            fired.append(sim.now)

        for delay in (2.0, math.nan, 1.0, 3.0):
            sim.process(waiter(delay))
        with pytest.raises(ValueError, match="negative or NaN timeout delay nan"):
            sim.run()
        assert fired == []

    @pytest.mark.parametrize("delay", [-1.0, math.nan])
    def test_succeed_after_bad_delay_names_event(self, delay):
        sim = Simulation()
        evt = sim.event(name="ack:s0->c0")
        with pytest.raises(ValueError, match=r"negative or NaN.*ack:s0->c0"):
            evt.succeed_after(delay)
        assert not evt.triggered
        evt.succeed_after(0.5, "late")  # still usable, fires once
        sim.run()
        assert (evt.value, sim.now) == ("late", 0.5)

    def test_succeed_after_fires_at_delay_with_value(self):
        sim = Simulation()
        seen = []

        def waiter(evt):
            seen.append((yield evt))
            seen.append(sim.now)

        evt = sim.event()
        sim.process(waiter(evt))
        evt.succeed_after(2.0, "v")
        with pytest.raises(SimulationError, match="already triggered"):
            evt.succeed_after(1.0)
        sim.run()
        assert seen == ["v", 2.0]

    def test_run_until_nan_rejected(self):
        # run(until=nan) used to pass the past-horizon check and leave
        # sim.now at NaN.
        sim = Simulation()
        sim.schedule_callback(1.0, lambda: None)
        with pytest.raises(ValueError, match="NaN or in the past"):
            sim.run(until=math.nan)
        assert sim.now == 0.0

    def test_schedule_callback_return_is_fire_and_forget(self):
        # The lightweight heap entry is opaque: no Event API, but the
        # callback still fires at the right instant.
        sim = Simulation()
        fired = []
        handle = sim.schedule_callback(2.0, lambda: fired.append(sim.now))
        assert handle is not None
        sim.run()
        assert fired == [2.0]


class TestTimeoutPooling:
    """Zero-delay timeout churn: each timeout keeps its own value and state."""

    def test_pooled_timeouts_behave_like_fresh(self):
        sim = Simulation()
        seen = []

        def spinner():
            for i in range(50):
                t = yield sim.timeout(0.0, value=i)
                seen.append(t)

        sim.process(spinner())
        sim.run()
        assert seen == list(range(50))

    def test_retained_timeout_is_never_recycled(self):
        sim = Simulation()
        keep = []

        def proc():
            for i in range(20):
                t = sim.timeout(0.0, value=("mine", i))
                keep.append(t)
                yield t
                yield sim.timeout(0.0)  # zero-delay churn between them

        sim.process(proc())
        sim.run()
        assert [t.value for t in keep] == [("mine", i) for i in range(20)]
        assert all(t.processed and t.ok for t in keep)

    def test_condition_children_survive_pool_churn(self):
        sim = Simulation()

        def proc():
            got = yield sim.all_of([sim.timeout(0.0, value=a) for a in "abc"])
            # more timeout churn, then check the condition's collected values
            for _ in range(10):
                yield sim.timeout(0.0)
            return got

        p = sim.process(proc())
        sim.run()
        assert list(p.value.values()) == ["a", "b", "c"]
