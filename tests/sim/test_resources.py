"""Tests for sim resources (Resource, Container)."""

import pytest

from repro.sim import Container, Resource, Simulation
from repro.sim.kernel import SimulationError


class TestResource:
    def test_capacity_one_serializes(self):
        sim = Simulation()
        res = Resource(sim, capacity=1)
        log = []

        def user(sim, tag, hold):
            req = res.request()
            yield req
            log.append((tag, "in", sim.now))
            yield sim.timeout(hold)
            res.release(req)
            log.append((tag, "out", sim.now))

        sim.process(user(sim, "a", 2.0))
        sim.process(user(sim, "b", 1.0))
        sim.run()
        assert log == [
            ("a", "in", 0.0),
            ("a", "out", 2.0),
            ("b", "in", 2.0),
            ("b", "out", 3.0),
        ]

    def test_capacity_n_parallel(self):
        sim = Simulation()
        res = Resource(sim, capacity=3)
        done = []

        def user(sim, i):
            with res.request() as req:
                yield req
                yield sim.timeout(1.0)
                done.append((i, sim.now))

        for i in range(6):
            sim.process(user(sim, i))
        sim.run()
        # two waves of 3
        assert [t for _, t in done] == [1.0] * 3 + [2.0] * 3

    def test_context_manager_releases(self):
        sim = Simulation()
        res = Resource(sim, capacity=1)

        def user(sim):
            with res.request() as req:
                yield req
            return res.count

        p = sim.process(user(sim))
        sim.run()
        assert p.value == 0

    def test_release_queued_request(self):
        sim = Simulation()
        res = Resource(sim, capacity=1)
        held = res.request()  # granted immediately
        queued = res.request()
        assert not queued.triggered
        res.release(queued)  # cancel while queued
        res.release(held)
        assert res.count == 0

    def test_release_unknown_raises(self):
        sim = Simulation()
        r1 = Resource(sim, capacity=1)
        r2 = Resource(sim, capacity=1)
        req = r1.request()
        with pytest.raises(SimulationError):
            r2.release(req)

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            Resource(Simulation(), capacity=0)


class TestContainer:
    def test_level_tracking(self):
        sim = Simulation()
        c = Container(sim, capacity=100, init=50)
        assert c.level == 50

        def proc(sim):
            yield c.get(20)
            yield c.put(5)

        sim.process(proc(sim))
        sim.run()
        assert c.level == 35

    def test_get_blocks_until_available(self):
        sim = Simulation()
        c = Container(sim, capacity=100, init=0)

        def getter(sim):
            yield c.get(10)
            return sim.now

        def putter(sim):
            yield sim.timeout(4)
            yield c.put(10)

        g = sim.process(getter(sim))
        sim.process(putter(sim))
        sim.run()
        assert g.value == 4.0

    def test_put_blocks_at_capacity(self):
        sim = Simulation()
        c = Container(sim, capacity=10, init=10)

        def putter(sim):
            yield c.put(5)
            return sim.now

        def getter(sim):
            yield sim.timeout(2)
            yield c.get(7)

        p = sim.process(putter(sim))
        sim.process(getter(sim))
        sim.run()
        assert p.value == 2.0

    def test_validation(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            Container(sim, capacity=0)
        with pytest.raises(ValueError):
            Container(sim, capacity=10, init=20)
        c = Container(sim, capacity=10)
        with pytest.raises(ValueError):
            c.get(20)
        with pytest.raises(ValueError):
            c.put(-1)
        with pytest.raises(ValueError):
            c.get(-1)
