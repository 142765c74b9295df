"""Unidirectional network links.

A :class:`Link` is one direction of a physical connection: capacity in
bytes/second, propagation delay in seconds, and a framing ``efficiency``
factor (usable fraction after Ethernet/IP/TCP framing — ~0.94 on GbE with
standard frames, higher with jumbo frames). The fluid flow engine divides
``usable_rate`` among active flows.
"""

from __future__ import annotations

from typing import Optional


class Link:
    """One direction of a network link."""

    __slots__ = ("name", "src", "dst", "rate", "delay", "efficiency", "index",
                 "on_rate_change")

    def __init__(
        self,
        src: str,
        dst: str,
        rate: float,
        delay: float = 0.0,
        efficiency: float = 0.94,
        name: Optional[str] = None,
    ) -> None:
        self.name = name or f"{src}->{dst}"
        # Written so that NaN fails each check.
        if not rate > 0:
            raise ValueError(f"link {self.name}: rate must be positive, got {rate}")
        if not delay >= 0:
            raise ValueError(
                f"link {self.name}: delay must be non-negative, got {delay}")
        if not 0 < efficiency <= 1:
            raise ValueError(
                f"link {self.name}: efficiency must be in (0, 1], got {efficiency}")
        self.src = src
        self.dst = dst
        self.rate = float(rate)
        self.delay = float(delay)
        self.efficiency = float(efficiency)
        #: Index into the engine's capacity vector; assigned by Network.
        self.index: int = -1
        #: Callback ``fn(link, old_rate)`` fired by set_rate; assigned by
        #: Network so capacity changes propagate to the flow engine.
        self.on_rate_change = None

    @property
    def usable_rate(self) -> float:
        """Capacity available to payload bytes (after framing overhead)."""
        return self.rate * self.efficiency

    def set_rate(self, rate: float) -> None:
        """Change the link's capacity (brownout / upgrade / failover).

        When the link belongs to a :class:`~repro.net.topology.Network`
        with a flow engine attached, the change takes effect at the
        current sim instant: the engine is notified and schedules a
        recompute, so active flows adapt without any caller-side poke.
        """
        if not rate > 0:
            raise ValueError(f"link {self.name}: rate must be positive, got {rate}")
        old = self.rate
        self.rate = float(rate)
        if self.rate != old and self.on_rate_change is not None:
            self.on_rate_change(self, old)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name} {self.rate:.3g} B/s delay={self.delay}>"
