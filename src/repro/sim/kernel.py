"""Event loop, events, and generator-based processes.

The kernel is deliberately minimal but complete enough for the reproduction:

* :class:`Event` — one-shot occurrence carrying a value or an exception;
  :meth:`Event.succeed_after` makes it its own timer.
* :class:`Timeout` — event that fires after a delay.
* :class:`Process` — drives a generator; each yielded event suspends the
  process until the event fires. A process is itself an event (fires when the
  generator returns), so processes compose: ``yield other_process``.
* :class:`AllOf` / :class:`AnyOf` — barrier / race combinators.
* :class:`Simulation` — the clock and the heap.

Determinism: events scheduled at equal times fire in scheduling order.
There is no wall-clock anywhere.

Fast paths (all provably order-identical to the straightforward
implementation — every heap entry still consumes exactly one ``(time,
seq)`` slot at exactly the position the slow path would have used; see
``tests/property/test_kernel_order.py``):

* zero-delay entries (event triggers, process resumes — the bulk of
  all traffic) bypass the heap through a FIFO lane: a deque entry keyed
  identically to its would-be heap entry, drained strictly before any heap
  entry that sorts after it, so the merged pop order is exactly the heap
  order without the O(log n) sifts;
* :class:`Process` resumes dispatch directly to ``gen.send``/``gen.throw``
  instead of allocating a closure per resume;
* waiting on an already-processed event pushes a tiny :class:`_Resume`
  trampoline instead of constructing and triggering a relay :class:`Event`;
* :meth:`Simulation.schedule_callback` pushes a :class:`_Callback` heap
  entry (no :class:`Event`, no closure).

One primitive removes entries instead: :meth:`Event.succeed_after`
triggers an event to fire after a delay, one heap entry, where a timer
callback that then triggered the event took two. Messages and flow
arrivals fire this way, and :class:`Timeout` is built on it. Dropping
the callback's slot can reorder same-instant events, so what pins that
change is the goldens and the e2e reference outputs, not the one-slot
argument; ``tests/property/test_kernel_order.py`` checks the primitive
against the reference kernel's own.

Every :class:`Timeout` is a fresh object: nothing is recycled, so no
kernel state depends on when the cyclic GC runs.

Scheduling-boundary validation: negative and NaN delays are rejected with
a clear error *at the call that supplied them*
(:meth:`Event.succeed_after`, hence :class:`Timeout` and
:meth:`Simulation.timeout`, and :meth:`Simulation.schedule_callback`),
naming the event or callback — previously they
surfaced later as "time went backwards (kernel bug)" far from the
offending caller, or, for NaN, not at all: a NaN heap key breaks the heap
order silently. Each check is the one comparison ``not delay >= 0``,
true for a negative delay and for NaN. That boundary check is also what
lets the run loops drop the per-event monotonicity re-check.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from types import GeneratorType
from typing import Any, Callable, Generator, Iterable, Optional


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
        self.sim._push_now(self)
        return self

    def succeed_after(self, delay: float, value: Any = None) -> "Event":
        """Trigger successfully with ``value``, firing ``delay`` seconds
        from now: the event is its own timer, one heap entry. A negative
        or NaN ``delay`` raises ``ValueError`` naming the event and leaves
        it untriggered."""
        if not delay >= 0:
            raise ValueError(f"negative or NaN timeout delay {delay} for {self!r}")
        if self._triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.sim._push(delay, self)
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
        self.sim._push_now(self)
        return self

    # -- internal ------------------------------------------------------------

    def _process(self) -> None:
        """Run callbacks. Called by the event loop exactly once."""
        callbacks = self.callbacks
        self.callbacks = None
        self._processed = True
        for cb in callbacks:  # type: ignore[union-attr]
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
        # Inlined Event.__init__ (hot path); succeed_after checks the delay
        # and triggers it.
        self.sim = sim
        self.name = "Timeout"
        self.callbacks = []
        self._ok = None
        self._triggered = False
        self._processed = False
        self._defused = False
        self.delay = delay
        self.succeed_after(delay, value)


class _Callback:
    """Heap entry that runs a bare function — no :class:`Event` machinery.

    ``callbacks = None`` makes it quack like an already-processed event to
    the few internals that look (e.g. interrupt cancellation).
    """

    __slots__ = ("fn", "name")
    callbacks = None

    def __init__(self, fn: Callable[[], None], name: str = "") -> None:
        self.fn = fn
        self.name = name

    def _process(self) -> None:
        self.fn()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<callback {self.name or self.fn!r}>"


class _Resume:
    """Heap entry that resumes one process directly (relay-event fast path).

    Replaces the ``relay = Event(...); relay.succeed(target.value)`` dance
    for targets that already fired: it occupies the exact ``(time, seq)``
    slot the relay would have, so global ordering is
    unchanged, but skips the Event allocation, the callbacks list, and the
    triggered/processed bookkeeping. Cancellation (interrupt delivered
    first) is detected by the process having moved on: ``proc._target is
    not self``.
    """

    __slots__ = ("proc", "value", "throw")
    callbacks = None

    def __init__(self, proc: "Process", value: Any, throw: bool) -> None:
        self.proc = proc
        self.value = value
        self.throw = throw

    def _process(self) -> None:
        p = self.proc
        if p._target is not self:
            return  # interrupted (or otherwise detached) before we fired
        p._target = None
        p._step(self.value, self.throw)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<resume {self.proc.name!r} throw={self.throw}>"


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
        if type(gen) is not GeneratorType and not (
            hasattr(gen, "send") and hasattr(gen, "throw")
        ):
            raise TypeError(f"process requires a generator, got {type(gen).__name__}")
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self.gen = gen
        # Kick off on a zero-delay trampoline so creation order == start order
        # (same seq slot the old init Event consumed).
        entry = _Resume(self, None, False)
        self._target: Any = entry
        sim._push_now(entry)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant."""
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")

        # Deliver asynchronously so the interrupter continues first.
        def _deliver() -> None:
            if self._triggered:
                return  # finished in the meantime
            target = self._target
            if target is not None and target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:
                    pass
            self._target = None
            self._step(Interrupt(cause), True)

        self.sim._push_now(_Callback(_deliver, name=f"interrupt:{self.name}"))

    # -- internals -----------------------------------------------------------

    def _resume(self, event: Event) -> None:
        self._target = None
        if event._ok:
            self._step(event._value, False)
        else:
            event._defused = True
            self._step(event._value, True)

    def _step(self, value: Any, throw: bool) -> None:
        try:
            if throw:
                target = self.gen.throw(value)
            else:
                target = self.gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._triggered = True
            self._ok = False
            self._value = exc
            self.sim._push_now(self)
            return
        cbs = target.callbacks if isinstance(target, Event) else False
        if cbs is False:
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield events"
            )
        if target.sim is not self.sim:
            raise SimulationError(f"process {self.name!r} yielded event from another simulation")
        if cbs is None:
            # Already processed: resume via an order-preserving trampoline.
            entry = _Resume(self, target._value, not target._ok)
            self._target = entry
            self.sim._push_now(entry)
        else:
            cbs.append(self._resume)
            self._target = target


class Simulation:
    """The event loop: a clock plus a heap of pending events.

    Two scheduling lanes, one logical order. Every entry carries the key
    ``(time, seq)``; zero-delay entries (the bulk: triggers, resumes,
    sequencers) are appended to ``_fifo``,
    everything else is heap-pushed. Because delays are validated
    non-negative, a FIFO entry's time always equals the current clock, so
    the FIFO holds a contiguous ascending-seq run at ``now`` and the merged
    pop — take the heap head only when it sorts before the FIFO head — is
    exactly the order a single heap would produce.

    Each simulation is one *universe* and takes the next universe id at
    construction (:attr:`id`): the ``sim`` label of its telemetry and its
    Chrome-trace pid. :func:`rewind_universe_ids` numbers from 1 again.
    """

    #: The id the next universe takes.
    next_id = 1

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Any]] = []
        self._fifo: deque[tuple[float, int, Any]] = deque()
        self._seq = 0
        self.rng = None  # set lazily by RngRegistry users
        self.id = Simulation.next_id
        Simulation.next_id += 1

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

    def _push_now(self, item: Any) -> None:
        """Zero-delay push: straight to the FIFO lane."""
        seq = self._seq
        self._seq = seq + 1
        self._fifo.append((self._now, seq, item))

    def _push(self, delay: float, item: Any) -> None:
        """Internal unvalidated push: callers guarantee ``delay >= 0``."""
        seq = self._seq
        self._seq = seq + 1
        if delay == 0.0:
            self._fifo.append((self._now, seq, item))
        else:
            heappush(self._heap, (self._now + delay, seq, item))

    def schedule_callback(self, delay: float, fn: Callable[[], None], name: str = "") -> _Callback:
        """Run ``fn`` after ``delay`` seconds (bookkeeping helper).

        Returns an opaque heap entry, not an :class:`Event` — callbacks are
        fire-and-forget and cannot be waited on.
        """
        if not delay >= 0:
            raise ValueError(
                f"negative or NaN delay {delay!r} scheduling callback {name or fn!r}"
            )
        entry = _Callback(fn, name=name)
        self._push(delay, entry)
        return entry

    def _pop(self) -> Any:
        """Pop the globally next entry (callers ensure one exists)."""
        fifo = self._fifo
        heap = self._heap
        if fifo:
            if heap and heap[0] < fifo[0]:
                t, _key, item = heappop(heap)
                self._now = t
            else:
                item = fifo.popleft()[2]
        else:
            t, _key, item = heappop(heap)
            if t < self._now:
                raise SimulationError("time went backwards (kernel bug)")
            self._now = t
        return item

    # -- running -----------------------------------------------------------

    def step(self) -> None:
        """Process exactly one event."""
        if not self._heap and not self._fifo:
            raise SimulationError("step() on an empty schedule")
        self._pop()._process()

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if none."""
        if self._fifo:
            return self._fifo[0][0]
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the schedule drains, time ``until`` passes, or an event fires.

        Returns the event's value when ``until`` is an event.
        """
        heap = self._heap
        fifo = self._fifo
        if isinstance(until, Event):
            stop = until
            while not stop._processed:
                # Inlined _pop() with the deadlock check folded in.
                if fifo:
                    if heap and heap[0] < fifo[0]:
                        t, _key, item = heappop(heap)
                        self._now = t
                    else:
                        item = fifo.popleft()[2]
                elif heap:
                    t, _key, item = heappop(heap)
                    self._now = t
                else:
                    raise SimulationError(
                        f"schedule drained before event {stop!r} fired (deadlock?)"
                    )
                item._process()
            if stop._ok:
                return stop._value
            stop._defused = True
            raise stop._value
        horizon = float("inf") if until is None else float(until)
        if not horizon >= self._now:
            raise ValueError(f"until={horizon} is NaN or in the past (now={self._now})")
        while True:
            # Inlined _pop() with the horizon check folded in. FIFO entries
            # fire at the current clock, which never exceeds the horizon, so
            # only heap heads need the bound re-checked.
            if fifo:
                if heap and heap[0] < fifo[0]:
                    t, _key, item = heappop(heap)
                    self._now = t
                else:
                    item = fifo.popleft()[2]
            elif heap:
                t = heap[0][0]
                if t > horizon:
                    break
                item = heappop(heap)[2]
                self._now = t
            else:
                break
            item._process()
        if horizon != float("inf"):
            self._now = horizon
        return None


def rewind_universe_ids() -> None:
    """Number the next :class:`Simulation` 1 again.

    :meth:`repro.obs.registry.MetricsRegistry.reset` calls this between
    runs, so back-to-back runs in one process label and trace their
    universes as a fresh process would.
    """
    Simulation.next_id = 1
