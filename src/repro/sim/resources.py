"""Queued resources: servers and level containers.

* :class:`Resource` — ``capacity`` concurrent holders, FIFO waiters. Models
  disk queues, HBA ports, tape drives, per-inode token queues.
* :class:`Container` — continuous level with put/get; models disk-space
  accounting and HSM watermarks.

All acquisition methods return events suitable for ``yield`` inside a
process.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.kernel import Event, Simulation, SimulationError


class Request(Event):
    """A pending acquisition of a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim, name=f"request:{resource.name}")
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.resource.release(self)


class Resource:
    """``capacity`` concurrent holders with a FIFO wait queue."""

    def __init__(self, sim: Simulation, capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self.users)

    def request(self) -> Request:
        """Acquire a slot; the returned event fires when granted."""
        req = Request(self)
        if len(self.users) < self.capacity:
            self.users.append(req)
            req.succeed()
        else:
            self.queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Release a held or queued request."""
        if request in self.users:
            self.users.remove(request)
            self._grant_next()
        else:
            try:
                self.queue.remove(request)
            except ValueError:
                raise SimulationError(
                    f"release of unknown request on resource {self.name!r}"
                ) from None

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed()


class Container:
    """A continuous level in ``[0, capacity]`` with blocking put/get."""

    def __init__(
        self,
        sim: Simulation,
        capacity: float = float("inf"),
        init: float = 0.0,
        name: str = "container",
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init level out of range")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._level = float(init)
        self._getters: deque[tuple[Event, float]] = deque()
        self._putters: deque[tuple[Event, float]] = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        evt = Event(self.sim, name=f"put:{self.name}")
        self._putters.append((evt, amount))
        self._settle()
        return evt

    def get(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        if amount > self.capacity:
            raise ValueError(f"get({amount}) exceeds capacity {self.capacity}")
        evt = Event(self.sim, name=f"get:{self.name}")
        self._getters.append((evt, amount))
        self._settle()
        return evt

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters:
                evt, amount = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.popleft()
                    self._level += amount
                    evt.succeed()
                    progress = True
            if self._getters:
                evt, amount = self._getters[0]
                if amount <= self._level:
                    self._getters.popleft()
                    self._level -= amount
                    evt.succeed(amount)
                    progress = True
