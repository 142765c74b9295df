"""Tests for Pipe and Disk."""

import pytest

from repro.sim import Simulation
from repro.sim.trace import TRACE
from repro.storage import Disk, DiskSpec, FC_2005, Pipe, SATA_2005
from repro.util.units import GB, KiB, MB


class TestPipe:
    def test_service_time(self):
        sim = Simulation()
        pipe = Pipe(sim, rate=MB(100), per_io_latency=0.01)
        assert pipe.service_time(MB(100)) == pytest.approx(1.01)

    def test_serialization(self):
        sim = Simulation()
        pipe = Pipe(sim, rate=MB(100))
        e1 = pipe.transfer(MB(100))
        e2 = pipe.transfer(MB(100))
        sim.run(until=e1)
        assert sim.now == pytest.approx(1.0)
        sim.run(until=e2)
        assert sim.now == pytest.approx(2.0)

    def test_capacity_parallelism(self):
        sim = Simulation()
        pipe = Pipe(sim, rate=MB(100), capacity=2)
        events = [pipe.transfer(MB(100)) for _ in range(2)]
        for e in events:
            sim.run(until=e)
        assert sim.now == pytest.approx(1.0)

    def test_counters(self):
        sim = Simulation()
        pipe = Pipe(sim, rate=MB(100))
        sim.run(until=pipe.transfer(MB(50)))
        assert pipe.bytes_served == MB(50)
        assert pipe.ios_served == 1

    def test_queue_depth(self):
        sim = Simulation()
        pipe = Pipe(sim, rate=MB(1))
        pipe.transfer(MB(10))
        pipe.transfer(MB(10))
        sim.run(until=0.001)
        assert pipe.queue_depth == 1

    def test_serves_in_call_order_in_three_entries_per_io(self):
        # An IO is a grant, a service timer and its own firing: it spawns
        # no process, whose start and completion would cost two more.
        sim = Simulation()
        pipe = Pipe(sim, rate=MB(100))
        served = []
        seq0 = sim._seq
        for i in range(3):
            pipe.transfer(MB(50)).callbacks.append(
                lambda _e, i=i: served.append((i, sim.now))
            )
        sim.run()
        assert served == [(0, 0.5), (1, 1.0), (2, 1.5)]
        assert sim._seq - seq0 <= 3 * 3

    def test_validation(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            Pipe(sim, rate=0)
        with pytest.raises(ValueError):
            Pipe(sim, rate=1, per_io_latency=-1)
        pipe = Pipe(sim, rate=1)
        with pytest.raises(ValueError):
            pipe.transfer(-1)


class TestIdleStage:
    def test_takes_the_slot_and_queues_contenders(self):
        sim = Simulation()
        pipe = Pipe(sim, rate=MB(100))
        first = pipe.transfer(MB(50))
        assert pipe._res.count == 1  # held at the call, before any entry runs
        queued = pipe.transfer(MB(50))
        assert pipe.queue_depth == 1
        sim.run(until=first)
        assert sim.now == 0.5
        sim.run(until=queued)
        assert sim.now == 1.0

    def test_records_wait_and_service_spans(self):
        TRACE.enable()
        try:
            sim = Simulation()
            pipe = Pipe(sim, rate=MB(100), name="p")
            sim.run(until=pipe.transfer(MB(50)))
            spans = [(t0, dur, lane, name, cat, args)
                     for _ph, t0, dur, _, lane, name, cat, args in TRACE._events]
        finally:
            TRACE.disable()
            TRACE.reset()
        args = {"bytes": MB(50)}
        assert spans == [
            (0.0, 0.0, "pipe:p", "wait", "storage.queue", args),
            (0.0, 0.5, "pipe:p", "service", "storage.service", args),
        ]


class TestDiskSpec:
    def test_profiles_sane(self):
        assert SATA_2005.capacity == GB(250)
        assert FC_2005.read_rate > SATA_2005.read_rate
        assert FC_2005.seek_time < SATA_2005.seek_time

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskSpec("bad", capacity=0, read_rate=1, write_rate=1, seek_time=0)
        with pytest.raises(ValueError):
            DiskSpec("bad", capacity=1, read_rate=1, write_rate=1, seek_time=-1)


class TestDisk:
    def test_sequential_read_time(self):
        sim = Simulation()
        disk = Disk(sim, SATA_2005)
        evt = disk.io("read", MB(60), sequential=True)
        sim.run(until=evt)
        assert sim.now == pytest.approx(1.0)

    def test_random_read_pays_seek(self):
        sim = Simulation()
        disk = Disk(sim, SATA_2005)
        evt = disk.io("read", MB(60), sequential=False)
        sim.run(until=evt)
        assert sim.now == pytest.approx(1.0 + SATA_2005.seek_time)

    def test_write_slower_than_read(self):
        sim = Simulation()
        disk = Disk(sim, SATA_2005)
        evt = disk.io("write", MB(55), sequential=True)
        sim.run(until=evt)
        assert sim.now == pytest.approx(1.0)

    def test_reads_and_writes_share_actuator(self):
        sim = Simulation()
        disk = Disk(sim, SATA_2005)
        e1 = disk.io("read", MB(60))
        e2 = disk.io("write", MB(55))
        sim.run(until=e2)
        assert sim.now == pytest.approx(2.0)
        assert e1.processed

    def test_random_read_behind_write_exact_times(self):
        # Pinned to the bit: the read waits for the write on the shared
        # actuator, then pays seek + bytes / read rate.
        sim = Simulation()
        disk = Disk(sim, FC_2005, name="d")
        write = disk.io("write", KiB(256) * 3 + 17)
        read = disk.io("read", KiB(64) + 5, sequential=False)
        sim.run(until=write)
        assert sim.now == 0.009252341176470589
        sim.run(until=read)
        assert sim.now == 0.015388756906807667

    def test_byte_accounting(self):
        sim = Simulation()
        disk = Disk(sim, SATA_2005)
        sim.run(until=disk.io("read", MB(10)))
        sim.run(until=disk.io("write", MB(5)))
        assert disk.bytes_read == MB(10)
        assert disk.bytes_written == MB(5)

    def test_bad_kind(self):
        disk = Disk(Simulation(), SATA_2005)
        with pytest.raises(ValueError):
            disk.io("append", 10)
        with pytest.raises(ValueError):
            disk.io("read", -10)
