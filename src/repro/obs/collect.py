"""Sim-clock scrape collector.

A :class:`Collector` is an ordinary simulation process that scrapes the
registry every ``interval`` sim-seconds. It never drains on its own —
the repo's experiments always ``run(until=event)``, so an endless
collector loop is safe and keeps the scrape cadence uniform across an
entire run.

Telemetry must not perturb scheduling: the collector only *reads*
subsystem state (stored metrics and callbacks). Its timeouts consume
sequence numbers, but the kernel's determinism contract orders same-time
events by relative ``seq`` order, which is unchanged for all
non-collector events; golden-metrics tests pin this.
"""

from __future__ import annotations

from repro.obs.registry import OBS, MetricsRegistry


class Collector:
    """Periodic scraper bound to one simulation."""

    def __init__(self, sim, registry: MetricsRegistry = None, interval: float = None):
        self.sim = sim
        self.registry = registry if registry is not None else OBS
        self.interval = (
            interval if interval is not None else self.registry.scrape_interval
        )
        self.process = None

    def start(self) -> "Collector":
        if self.process is None:
            self.process = self.sim.process(self._run(), name="obs.collector")
        return self

    def _run(self):
        registry = self.registry
        sim = self.sim
        # Scrape at t=start immediately so the first row anchors deltas.
        registry.scrape(sim)
        while True:
            yield sim.timeout(self.interval)
            registry.scrape(sim)


def start_collector(sim, interval: float = None) -> Collector:
    """Attach a collector for the global registry to ``sim``."""
    return Collector(sim, OBS, interval).start()
