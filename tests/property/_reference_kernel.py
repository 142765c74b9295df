"""Event loop, events, and generator-based processes.

The kernel is deliberately minimal but complete enough for the reproduction:

* :class:`Event` — one-shot occurrence carrying a value or an exception.
* :class:`Timeout` — event that fires after a delay.
* :class:`Process` — drives a generator; each yielded event suspends the
  process until the event fires. A process is itself an event (fires when the
  generator returns), so processes compose: ``yield other_process``.
* :class:`AllOf` / :class:`AnyOf` — barrier / race combinators.
* :class:`Simulation` — the clock and the heap.

Determinism: events scheduled at equal times fire in (priority, scheduling
order). There is no wall-clock anywhere.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

#: Priority for ordinary events.
NORMAL = 1
#: Priority for "urgent" bookkeeping events that must precede normal ones
#: scheduled at the same instant (used by resource releases).
URGENT = 0


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double-trigger, running without events...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """A one-shot occurrence.

    Life cycle: *pending* → *triggered* (scheduled on the heap) →
    *processed* (callbacks run). ``succeed``/``fail`` trigger it; waiting
    processes resume with the value, or have the failure thrown into them.
    """

    __slots__ = (
        "sim",
        "callbacks",
        "_value",
        "_ok",
        "_triggered",
        "_processed",
        "_defused",
        "name",
    )

    def __init__(self, sim: "Simulation", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.callbacks: Optional[list[Callable[[Event], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._triggered = False
        self._processed = False
        self._defused = False

    # -- state ---------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError(f"event {self!r} has not fired yet")
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"event {self!r} has no value yet")
        return self._value

    # -- triggering ----------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.sim._enqueue(self, delay=0.0, priority=NORMAL)
        return self

    def succeed_after(self, delay: float, value: Any = None) -> "Event":
        """Trigger successfully with ``value``, firing ``delay`` seconds from now."""
        if not delay >= 0:
            raise ValueError(f"negative or NaN timeout delay {delay} for {self!r}")
        if self._triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.sim._enqueue(self, delay=delay, priority=NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger with an exception; waiters have it thrown into them."""
        if self._triggered:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.sim._enqueue(self, delay=0.0, priority=NORMAL)
        return self

    # -- internal ------------------------------------------------------------

    def _process(self) -> None:
        """Run callbacks. Called by the event loop exactly once."""
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        assert callbacks is not None
        for cb in callbacks:
            cb(self)
        if self._ok is False and not callbacks and not self._defused:
            raise self._value  # unhandled failure with nobody listening

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = self.name or self.__class__.__name__
        return f"<{label} triggered={self._triggered} ok={self._ok}>"


class Timeout(Event):
    """Event that fires ``delay`` seconds after construction."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulation", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay}")
        super().__init__(sim, name=f"Timeout({delay})")
        self.delay = delay
        self._triggered = True
        self._ok = True
        self._value = value
        sim._enqueue(self, delay=delay, priority=NORMAL)


class _Condition(Event):
    """Base for AllOf/AnyOf: waits on a set of events."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulation", events: Iterable[Event]) -> None:
        super().__init__(sim, name=self.__class__.__name__)
        self.events = list(events)
        self._count = 0
        if any(e.sim is not sim for e in self.events):
            raise SimulationError("all events of a condition must share a simulation")
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.callbacks is None:  # already processed
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _collect(self) -> dict[Event, Any]:
        # ``processed`` (not ``triggered``): a Timeout is "triggered" from
        # construction, but only events whose callbacks have started running
        # have actually occurred at this instant.
        return {e: e.value for e in self.events if e.processed and e.ok}


class AllOf(_Condition):
    """Fires when every child event has fired; value is ``{event: value}``.

    Fails fast if any child fails.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            if not event.ok:
                event._defused = True  # late failure: condition already decided
            return
        if not event.ok:
            event._defused = True
            self.fail(event.value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Fires when the first child event fires (success or failure)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            if not event.ok:
                event._defused = True
            return
        if not event.ok:
            event._defused = True
            self.fail(event.value)
            return
        self.succeed(self._collect())


class Process(Event):
    """Drives a generator; suspends on each yielded :class:`Event`.

    The process fires (as an event) when its generator returns; the generator's
    return value becomes the process's value. Uncaught exceptions in the
    generator fail the process; if nothing is waiting on it, they propagate
    out of :meth:`Simulation.run` (no silent death).
    """

    __slots__ = ("gen", "_target")

    def __init__(self, sim: "Simulation", gen: Generator[Event, Any, Any], name: str = "") -> None:
        if not hasattr(gen, "send") or not hasattr(gen, "throw"):
            raise TypeError(f"process requires a generator, got {type(gen).__name__}")
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self.gen = gen
        self._target: Optional[Event] = None
        # Kick off on a zero-delay init event so creation order == start order.
        init = Event(sim, name=f"init:{self.name}")
        init.callbacks.append(self._resume)
        init.succeed()
        self._target = init

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant."""
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        # Deliver asynchronously so the interrupter continues first.
        def _deliver(_evt: Event) -> None:
            if self._triggered:
                return  # finished in the meantime
            target = self._target
            if target is not None and target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:
                    pass
            self._target = None
            self._step(lambda: self.gen.throw(Interrupt(cause)))

        evt = Event(self.sim, name=f"interrupt:{self.name}")
        evt.callbacks.append(_deliver)
        evt.succeed()

    # -- internals -----------------------------------------------------------

    def _resume(self, event: Event) -> None:
        self._target = None
        if event.ok:
            self._step(lambda: self.gen.send(event.value))
        else:
            event._defused = True  # type: ignore[attr-defined]
            self._step(lambda: self.gen.throw(event.value))

    def _step(self, advance: Callable[[], Any]) -> None:
        try:
            target = advance()
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._triggered = True
            self._ok = False
            self._value = exc
            self.sim._enqueue(self, delay=0.0, priority=NORMAL)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield events"
            )
        if target.sim is not self.sim:
            raise SimulationError(f"process {self.name!r} yielded event from another simulation")
        if target.callbacks is None:
            # Already processed: resume immediately via a fresh trigger.
            relay = Event(self.sim, name=f"relay:{self.name}")
            relay.callbacks.append(self._resume)
            if target.ok:
                relay.succeed(target.value)
            else:
                target._defused = True  # type: ignore[attr-defined]
                relay.fail(target.value)
            self._target = relay
        else:
            target.callbacks.append(self._resume)
            self._target = target


class Simulation:
    """The event loop: a clock plus a heap of pending events."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self.rng = None  # set lazily by RngRegistry users

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -- event factories -------------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator[Event, Any, Any], name: str = "") -> Process:
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------

    def _enqueue(self, event: Event, delay: float, priority: int) -> None:
        heapq.heappush(self._heap, (self._now + delay, priority, self._seq, event))
        self._seq += 1

    def schedule_callback(self, delay: float, fn: Callable[[], None], name: str = "") -> Event:
        """Run ``fn`` after ``delay`` seconds (bookkeeping helper)."""
        evt = Event(self, name=name or "callback")
        evt.callbacks.append(lambda _e: fn())
        evt._triggered = True
        evt._ok = True
        self._enqueue(evt, delay=delay, priority=NORMAL)
        return evt

    # -- running -----------------------------------------------------------

    def step(self) -> None:
        """Process exactly one event."""
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        t, _prio, _seq, event = heapq.heappop(self._heap)
        if t < self._now:
            raise SimulationError("time went backwards (kernel bug)")
        self._now = t
        event._process()

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the schedule drains, time ``until`` passes, or an event fires.

        Returns the event's value when ``until`` is an event.
        """
        if isinstance(until, Event):
            stop = until
            while not stop.processed:
                if not self._heap:
                    raise SimulationError(
                        f"schedule drained before event {stop!r} fired (deadlock?)"
                    )
                self.step()
            if stop.ok:
                return stop.value
            stop._defused = True  # type: ignore[attr-defined]
            raise stop.value
        horizon = float("inf") if until is None else float(until)
        if horizon < self._now:
            raise ValueError(f"until={horizon} is in the past (now={self._now})")
        while self._heap and self._heap[0][0] <= horizon:
            self.step()
        if horizon != float("inf"):
            self._now = horizon
        return None
