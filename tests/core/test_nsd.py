"""Tests for the NSD block layer (store/fetch, service, server tags)."""

import pytest

from repro.core.cluster import Gfs, NsdSpec
from repro.core.nsd import Nsd, NsdServer, NsdService
from repro.faults.health import NodeHealth
from repro.sim import Simulation
from repro.sim.trace import TRACE
from repro.storage import Hba, make_ds4100
from repro.util.units import Gbps, KiB


def san_gfs():
    """Server ``s0`` fronts a DS4100 LUN through an HBA (NSD 0); ``s1``
    is diskless (NSD 1). Client ``c0`` shares their switch."""
    g = Gfs(seed=0)
    g.network.add_node("sw", kind="switch")
    for name in ("s0", "s1", "c0"):
        g.network.add_host(name, "sw", Gbps(10))
    cluster = g.add_cluster("c")
    cluster.add_nodes(["s0", "s1", "c0"])
    array = make_ds4100(g.sim, "b0")
    fs = cluster.mmcrfs(
        "fs0",
        [
            NsdSpec(server="s0", blocks=64, lun=array.luns[0],
                    hba=Hba(g.sim, name="s0.hba")),
            NsdSpec(server="s1", blocks=64),
        ],
        block_size=KiB(64),
        store_data=False,
    )
    svc = fs.service
    assert (svc.server_of(0).node, svc.server_of(1).node) == ("s0", "s1")
    return g, svc, fs.block_size


class TestNsdStore:
    def make(self, store_data=True):
        return Nsd(nsd_id=0, name="nsd0", total_blocks=8, block_size=1024,
                   store_data=store_data)

    def test_store_fetch_roundtrip(self):
        nsd = self.make()
        nsd.store(3, 100, b"hello")
        assert nsd.fetch(3, 100, 5) == b"hello"

    def test_fetch_zero_fills_unwritten(self):
        nsd = self.make()
        assert nsd.fetch(0, 0, 10) == bytes(10)
        nsd.store(0, 5, b"xy")
        assert nsd.fetch(0, 0, 8) == b"\x00" * 5 + b"xy" + b"\x00"

    def test_merge_preserves_neighbours(self):
        nsd = self.make()
        nsd.store(0, 0, b"AAAA")
        nsd.store(0, 2, b"bb")
        assert nsd.fetch(0, 0, 4) == b"AAbb"

    def test_bounds_checked(self):
        nsd = self.make()
        with pytest.raises(ValueError):
            nsd.store(99, 0, b"x")
        with pytest.raises(ValueError):
            nsd.store(0, 1020, b"xxxxx")
        with pytest.raises(ValueError):
            nsd.fetch(0, 1000, 100)

    def test_size_only_mode(self):
        # No contents are kept, so a read is its length, like a write.
        nsd = self.make(store_data=False)
        nsd.store(0, 0, b"data")
        nsd.store(1, 0, 1024)
        assert nsd.fetch(0, 0, 4) == 4
        assert nsd.fetch(1, 0, 1024) == 1024
        assert nsd.writes == 2 and nsd.reads == 2

    def test_store_takes_a_length(self):
        nsd = self.make(store_data=False)
        nsd.corrupt(0)
        nsd.store(0, 0, 1023)  # partial: cannot vouch for the last byte
        assert not nsd.verify_full(0)
        nsd.store(0, 0, 1024)  # a full-length write heals injected rot
        assert nsd.verify_full(0)
        for offset, length in ((1000, 25), (0, -1)):
            with pytest.raises(ValueError, match="block bounds"):
                nsd.store(0, offset, length)
        assert nsd.writes == 2

    def test_trim(self):
        nsd = self.make()
        nsd.store(0, 0, b"ABCDEFGH")
        nsd.trim(0, 3)
        assert nsd.fetch(0, 0, 8) == b"ABC" + bytes(5)
        with pytest.raises(ValueError):
            nsd.trim(0, 9999)

    def test_discard(self):
        nsd = self.make()
        nsd.store(0, 0, b"gone")
        nsd.discard(0)
        assert nsd.fetch(0, 0, 4) == bytes(4)

    def test_capacity(self):
        nsd = self.make()
        assert nsd.capacity == 8 * 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            Nsd(0, "x", total_blocks=0, block_size=1024)


class TestNsdServer:
    def test_disk_io_through_hba_and_lun(self):
        sim = Simulation()
        array = make_ds4100(sim, "b0")
        nsd = Nsd(0, "n", total_blocks=8, block_size=1 << 20, lun=array.luns[0])
        server = NsdServer("node0", [nsd], hba=Hba(sim))
        evt = sim.process(server.disk_io(sim, nsd, "read", 1 << 20))
        sim.run(until=evt)
        assert sim.now > 0
        assert server.bytes_served == 1 << 20

    def test_diskless_server_instant(self):
        sim = Simulation()
        nsd = Nsd(0, "n", total_blocks=8, block_size=1024)
        server = NsdServer("node0", [nsd])
        evt = sim.process(server.disk_io(sim, nsd, "write", 1024))
        sim.run(until=evt)
        assert sim.now == 0.0

    def test_tags_carried(self):
        nsd = Nsd(0, "n", total_blocks=8, block_size=1024)
        server = NsdServer("node0", [nsd], tags=("lane2",))
        assert server.tags == ("lane2",)

    def test_traced_rpc_records_the_san_leg_once(self):
        g, svc, bs = san_gfs()
        TRACE.enable()
        try:
            g.run(until=g.sim.process(svc.read_block("c0", 0, 0, 0, bs)))
            g.run(until=g.sim.process(svc.write_block("c0", 0, 1, 0, bs)))
            spans = [(lane, name, cat, args)
                     for _ph, _t0, _dur, _, lane, name, cat, args in TRACE._events]
        finally:
            TRACE.disable()
            TRACE.reset()
        disk = [span for span in spans if span[1] == "disk.service"]
        leg = ("nsd:s0", "disk.service", "nsd.disk", {"nsd": "fs0-nsd0", "bytes": bs})
        assert disk == [leg, leg]
        assert not [span for span in spans if span[1].startswith("san.")]


class TestGuardFastPath:
    """A fault-free RPC builds no crash or partition park generator."""

    def make(self):
        g = Gfs(seed=0)
        g.network.add_node("sw", kind="switch")
        for name in ("s0", "s1", "c0"):
            g.network.add_host(name, "sw", Gbps(10))
        cluster = g.add_cluster("c")
        cluster.add_nodes(["s0", "s1", "c0"])
        fs = cluster.mmcrfs(
            "fs0",
            [NsdSpec(server=s, blocks=64) for s in ("s0", "s1")],
            block_size=KiB(64),
            store_data=False,
        )
        return g, fs.service, fs.block_size

    @pytest.mark.parametrize("with_health", [False, True])
    def test_fault_free_rpcs_never_park(self, monkeypatch, with_health):
        def no_park(*args):
            raise AssertionError("a fault-free RPC entered a park generator")

        monkeypatch.setattr(NsdService, "_guard_park", no_park)
        monkeypatch.setattr(NsdService, "_partition_park", no_park)
        g, svc, bs = self.make()
        if with_health:
            svc.attach_health(NodeHealth(g.sim))

        def io():
            yield from svc.write_block("c0", 0, 0, 0, bs)
            yield from svc.read_blocks("c0", 0, [0, 1])

        g.run(until=g.sim.process(io()))
        assert (svc.blocks_written, svc.blocks_read) == (1, 2)

    def test_rpc_to_crashed_server_parks_in_guard(self, monkeypatch):
        entered = []
        park = NsdService._guard_park

        def recording_park(self, server):
            entered.append(server.node)
            return park(self, server)

        monkeypatch.setattr(NsdService, "_guard_park", recording_park)
        g, svc, bs = self.make()
        health = NodeHealth(g.sim)
        svc.attach_health(health)
        node = svc.server_of(0).node
        health.crash(node)
        rpc = g.sim.process(svc.read_block("c0", 0, 0, 0, bs))
        g.run(until=1.0)
        # No detector declares the node down, so the RPC stays parked.
        assert entered == [node]
        assert not rpc.triggered and svc.blocks_read == 0


class TestTelemetryWrappers:
    def test_closed_parked_reads_are_not_errors(self):
        # The cyclic GC closes generators still parked when their run
        # ended, possibly while a later run is being exported: a
        # GeneratorExit is not an RPC or read error.
        from repro.obs import OBS

        from tests.core.testbed import mounted, run_io, small_gfs

        OBS.reset()
        OBS.enable()
        try:
            g, cluster, fs, _ = small_gfs(nsd_servers=2, store_data=False)
            writer = mounted(g, cluster, node="c0")
            reader = mounted(g, cluster, node="c1")

            def create():
                h = yield writer.open("/f", "w", create=True)
                yield writer.write(h, fs.block_size)
                yield writer.close(h)
                return (yield reader.open("/f", "r"))

            handle = run_io(g, create())
            svc = fs.service
            rpc = g.sim.process(svc.read_block("c0", 0, 0, 0, fs.block_size))
            pread = reader.pread(handle, 0, fs.block_size)  # waits for a token
            g.run(until=g.sim.now)
            assert svc.inflight == 1
            assert not rpc.triggered and not pread.triggered
            rpc.gen.close()
            pread.gen.close()
            counters = OBS.read()["counters"]
        finally:
            OBS.disable()
            OBS.reset()
        assert svc.inflight == 0
        assert not [key for key in counters if "errors" in key]


class TestKernelEntriesPerBlock:
    """Kernel entries (``sim._seq``) a streamed block costs, as a ceiling.

    A block RPC is a control message, a data flow, a SAN leg and an ack.
    The RPC and its SAN leg run inside the waiting run process, a message
    or flow arrival fires from its own delivery timer, and a diskless
    NSD's SAN leg costs nothing, so a block costs about 6.5 entries on
    either path; 7 leaves room for per-op work (open, tokens, close)
    without letting a spawned hop back in.
    """

    BLOCKS = 64
    CEILING = 7

    def stream(self, copies=1):
        """Entries per block of a streamed write, then of a peer's read."""
        from repro.core.replication import ReplicationPolicy

        from tests.core.testbed import mounted, run_io, small_gfs

        g, cluster, fs, _ = small_gfs(
            nsd_servers=4, store_data=False,
            replication=ReplicationPolicy(copies=copies),
        )
        writer = mounted(g, cluster, node="c0")
        reader = mounted(g, cluster, node="c1")
        nbytes = self.BLOCKS * fs.block_size

        def write():
            h = yield writer.open("/f", "w", create=True)
            yield writer.write(h, nbytes)
            yield writer.close(h)

        def read():
            h = yield reader.open("/f", "r")
            got = yield reader.read(h, nbytes)
            yield reader.close(h)
            return got

        s0 = g.sim._seq
        run_io(g, write())
        s1 = g.sim._seq
        assert run_io(g, read()) == nbytes
        s2 = g.sim._seq
        svc = fs.service
        assert (svc.blocks_written, svc.blocks_read) == (
            copies * self.BLOCKS, self.BLOCKS
        )
        return (s1 - s0) / self.BLOCKS, (s2 - s1) / self.BLOCKS

    def test_streamed_write_and_peer_read(self):
        write, read = self.stream()
        assert write <= self.CEILING
        assert read <= self.CEILING

    def test_san_leg_costs_three_entries_per_stage(self):
        # HBA, controller and RAID: a grant, a service timer and a done
        # each, run inside the RPC; the diskless leg costs none.
        g, svc, bs = san_gfs()

        def entries(rpc):
            s0 = g.sim._seq
            g.run(until=g.sim.process(rpc))
            return g.sim._seq - s0

        assert entries(svc.read_block("c0", 0, 0, 0, bs)) == 9 + entries(
            svc.read_block("c0", 1, 0, 0, bs)
        )
        assert entries(svc.write_block("c0", 0, 1, 0, bs)) == 9 + entries(
            svc.write_block("c0", 1, 1, 0, bs)
        )

    def test_replicated_peer_read_costs_no_more(self):
        # A replicated block read runs inside the reader's run process,
        # as an unreplicated one does: no process of its own.
        _, read = self.stream()
        _, replicated = self.stream(copies=2)
        assert replicated <= read
