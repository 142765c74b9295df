"""Integration tests: the caching gateway between an edge site and home.

The testbed is the two-cluster WAN topology from the multicluster tests
(sdsc serving, ncsa importing) with gateway nodes added at the ncsa edge;
clients mount the remote filesystem *through* the gateway.
"""

import pytest

from repro.cache import CacheGateway, GatewayBlockCache, GatewayMount
from repro.core.multicluster import MountAuthError
from repro.core.nsd import NsdServerDown
from repro.core.replication import ReplicationPolicy
from repro.core.tokens import RW
from repro.faults.partition import PartitionState
from repro.sim.trace import TRACE
from repro.util.units import Gbps

from tests.core.test_multicluster import patterned, wan_gfs
from tests.core.testbed import run_io


def gateway_gfs(
    mode="writeback",
    cache_blocks=64,
    wan_delay=0.015,
    lease_duration=30.0,
    gw_nodes=1,
    replication=None,
    **gw_kwargs,
):
    """wan_gfs plus a gateway cluster at the ncsa edge."""
    g, sdsc, ncsa, fs = wan_gfs(wan_delay=wan_delay, replication=replication)
    names = [f"gw{i}" for i in range(gw_nodes)]
    for name in names:
        g.network.add_host(name, "ncsa-sw", Gbps(1), site="ncsa")
    ncsa.add_nodes(names)
    cache = GatewayBlockCache(cache_blocks * fs.block_size, fs.block_size)
    gw = CacheGateway(
        fs, names, cache, mode=mode, lease_duration=lease_duration, **gw_kwargs
    )
    return g, sdsc, ncsa, fs, gw


def edge_mount(g, ncsa, gw, node="n0", **kw):
    return g.run(until=ncsa.mmmount("gpfs-sdsc-remote", node, gateway=gw, **kw))


def home_write(g, sdsc, path, payload, node="s3"):
    m = g.run(until=sdsc.mmmount("gpfs-sdsc", node))

    def io():
        h = yield m.open(path, "w", create=True)
        yield m.write(h, payload)
        yield m.close(h)

    run_io(g, io())
    return m


def read_all(g, mount, path, length):
    def io():
        h = yield mount.open(path, "r")
        data = yield mount.read(h, length)
        yield mount.close(h)
        return data

    return run_io(g, io())


class TestGatewayMountProtocol:
    def test_mount_through_gateway(self):
        g, sdsc, ncsa, fs, gw = gateway_gfs()
        mount = edge_mount(g, ncsa, gw)
        assert isinstance(mount, GatewayMount)
        assert mount.fs is fs
        assert mount.gateway is gw
        assert "n0" in gw.local_nodes
        assert sdsc.active_remote_mounts == 1

    def test_plain_remote_mount_unchanged(self):
        g, sdsc, ncsa, fs, gw = gateway_gfs()
        mount = g.run(until=ncsa.mmmount("gpfs-sdsc-remote", "n0"))
        assert not isinstance(mount, GatewayMount)

    def test_gateway_for_other_filesystem_rejected(self):
        g, sdsc, ncsa, fs, gw = gateway_gfs()
        other_g, _sdsc2, _ncsa2, other_fs = wan_gfs()
        cache = GatewayBlockCache(
            4 * other_fs.block_size, other_fs.block_size
        )
        foreign = CacheGateway(other_fs, ["gx0"], cache)
        evt = ncsa.mmmount("gpfs-sdsc-remote", "n1", gateway=foreign)
        with pytest.raises(MountAuthError, match="caches"):
            g.run(until=evt)


class TestReadPath:
    def test_cold_read_matches_direct_data(self):
        g, sdsc, ncsa, fs, gw = gateway_gfs()
        payload = patterned(3 * fs.block_size)
        home_write(g, sdsc, "/dataset", payload)
        m = edge_mount(g, ncsa, gw)
        assert read_all(g, m, "/dataset", len(payload)) == payload
        assert gw.origin_bytes == 3 * fs.block_size
        assert len(gw.cache) == 3
        assert gw.cache.misses >= 3

    def test_warm_hit_serves_without_wan_traffic(self):
        g, sdsc, ncsa, fs, gw = gateway_gfs()
        payload = patterned(3 * fs.block_size)
        home_write(g, sdsc, "/dataset", payload)
        m0 = edge_mount(g, ncsa, gw, "n0")

        t0 = g.sim.now
        assert read_all(g, m0, "/dataset", len(payload)) == payload
        cold_elapsed = g.sim.now - t0
        origin_after_cold = gw.origin_bytes

        # A second client's page pool is cold but the gateway is warm.
        m1 = edge_mount(g, ncsa, gw, "n1")
        t0 = g.sim.now
        assert read_all(g, m1, "/dataset", len(payload)) == payload
        warm_elapsed = g.sim.now - t0

        assert gw.origin_bytes == origin_after_cold  # zero new WAN bytes
        assert gw.cache.hits >= 3
        assert warm_elapsed < cold_elapsed
        assert gw.origin_offload > 0.0

    def test_concurrent_misses_fetch_once(self):
        g, sdsc, ncsa, fs, gw = gateway_gfs()
        payload = patterned(fs.block_size)
        home_write(g, sdsc, "/shared", payload)
        m0 = edge_mount(g, ncsa, gw, "n0")
        m1 = edge_mount(g, ncsa, gw, "n1")

        def io():
            h0 = yield m0.open("/shared", "r")
            h1 = yield m1.open("/shared", "r")
            reads = [m0.read(h0, fs.block_size), m1.read(h1, fs.block_size)]
            yield g.sim.all_of(reads)
            return [evt.value for evt in reads]

        datas = run_io(g, io())
        assert datas == [payload, payload]
        assert gw.origin_bytes == fs.block_size  # one WAN fetch, two readers

    def test_failed_fetch_fails_every_waiter_and_clears(self):
        g, sdsc, ncsa, fs, gw = gateway_gfs()
        payload = patterned(fs.block_size)
        home_write(g, sdsc, "/shared", payload)
        inode = fs.namespace.resolve("/shared")
        placed = fs.lookup_block(inode, 0)
        servers = {server.node for server in fs.service.servers.values()}
        for node in servers:
            fs.service.mark_down(node)

        def read():
            try:
                yield from gw.read_block("n0", inode, 0, placed)
            except NsdServerDown as exc:
                return exc

        readers = [g.sim.process(read()) for _ in range(2)]
        g.run(until=g.sim.all_of(readers))
        first, second = (reader.value for reader in readers)
        assert isinstance(first, NsdServerDown)
        assert second is first  # both waited on the one failed fetch
        assert gw._fetching == {} and gw.origin_bytes == 0
        for node in servers:
            fs.service.mark_up(node)
        assert run_io(g, gw.read_block("n0", inode, 0, placed)) == payload
        assert gw.origin_bytes == fs.block_size


class TestWritePath:
    def test_writeback_close_is_durable_at_home(self):
        g, sdsc, ncsa, fs, gw = gateway_gfs(mode="writeback")
        m = edge_mount(g, ncsa, gw)
        payload = patterned(2 * fs.block_size, seed=11)

        def io():
            h = yield m.open("/out", "w", create=True)
            yield m.write(h, payload)
            yield m.close(h)

        run_io(g, io())
        assert gw.write_acks >= 2
        assert gw.writes_flushed == gw.write_acks
        assert gw.dirty_queue_depth == 0
        assert gw.cache.dirty_blocks == 0
        m_home = g.run(until=sdsc.mmmount("gpfs-sdsc", "s3"))
        assert read_all(g, m_home, "/out", len(payload)) == payload

    def test_writethrough_pays_wan_before_ack(self):
        g, sdsc, ncsa, fs, gw = gateway_gfs(mode="writethrough")
        m = edge_mount(g, ncsa, gw)
        payload = patterned(fs.block_size, seed=12)

        def io():
            h = yield m.open("/out", "w", create=True)
            yield m.write(h, payload)
            yield m.close(h)

        run_io(g, io())
        assert gw.writes_through >= 1
        assert gw.writes_flushed == 0
        assert gw.cache.dirty_blocks == 0
        m_home = g.run(until=sdsc.mmmount("gpfs-sdsc", "s3"))
        assert read_all(g, m_home, "/out", len(payload)) == payload

    def test_writeback_ack_precedes_home_flush(self):
        g, sdsc, ncsa, fs, gw = gateway_gfs(mode="writeback")
        m = edge_mount(g, ncsa, gw)
        seed_payload = patterned(fs.block_size, seed=13)

        def setup():
            h = yield m.open("/f", "w", create=True)
            yield m.write(h, seed_payload)
            yield m.close(h)

        run_io(g, setup())
        inode = fs.namespace.resolve("/f")
        nsd_id, phys = fs.lookup_block(inode, 0)
        acks_before = gw.write_acks
        flushed_before = gw.writes_flushed
        new_payload = patterned(fs.block_size, seed=14)

        def io():
            yield from gw.write_block("n0", inode, 0, nsd_id, phys, 0, new_payload)
            # Ack arrived; the WAN flush (>= one 15 ms RTT away) has not.
            flushed_at_ack = gw.writes_flushed
            yield g.sim.timeout(1.0)
            return flushed_at_ack

        flushed_at_ack = run_io(g, io())
        assert gw.write_acks == acks_before + 1
        assert flushed_at_ack == flushed_before
        assert gw.writes_flushed == flushed_before + 1
        m_home = g.run(until=sdsc.mmmount("gpfs-sdsc", "s3"))
        assert read_all(g, m_home, "/f", len(new_payload)) == new_payload


class TestReplicatedHome:
    """A home filesystem with two copies of every block: the gateway's
    misses and home writes take the replicated path, like a direct mount."""

    @pytest.mark.parametrize("mode", ["writeback", "writethrough"])
    def test_every_copy_lands(self, mode):
        g, sdsc, ncsa, fs, gw = gateway_gfs(
            mode=mode,
            replication=ReplicationPolicy(copies=2, verify_reads=True),
        )
        bs = fs.block_size
        payload = patterned(3 * bs, seed=21)
        home_write(g, sdsc, "/dataset", payload)
        # Rot on block 0's primary: only the replicated read path
        # (verify, fail over, repair) serves the miss correctly.
        inode = fs.namespace.resolve("/dataset")
        nsd_id, phys = fs.lookup_block(inode, 0)
        fs.nsds[nsd_id].corrupt(phys)
        m = edge_mount(g, ncsa, gw)
        assert read_all(g, m, "/dataset", len(payload)) == payload
        assert gw.origin_bytes == 3 * bs
        assert fs.integrity.corrupt_reads_detected == 1

        out = patterned(2 * bs, seed=22)

        def io():
            h = yield m.open("/out", "w", create=True)
            yield m.write(h, out)
            yield m.fsync(h)
            # Past the fsync barrier, home holds both copies of each block.
            ino = fs.namespace.resolve("/out")
            at_barrier = [
                [fs.nsds[n].fetch(p, 0, bs) for n, p in fs.replica_placements(ino, b)]
                for b in range(2)
            ]
            yield m.close(h)
            yield g.sim.timeout(1.0)  # let the background read-repair land
            return at_barrier

        at_barrier = run_io(g, io())
        assert at_barrier == [[out[:bs]] * 2, [out[bs:]] * 2]
        if mode == "writeback":
            assert gw.writes_flushed == 2
        else:
            assert gw.writes_through == 2
        assert fs.integrity.read_repairs == 1
        assert fs.nsds[nsd_id].verify_full(phys)


class TestLeases:
    def test_foreign_write_breaks_live_lease(self):
        g, sdsc, ncsa, fs, gw = gateway_gfs(lease_duration=60.0)
        v1 = patterned(fs.block_size, seed=1)
        m_home = home_write(g, sdsc, "/f", v1)
        m = edge_mount(g, ncsa, gw)
        assert read_all(g, m, "/f", len(v1)) == v1
        assert len(gw.cache) == 1

        v2 = patterned(fs.block_size, seed=2)

        def overwrite():
            h = yield m_home.open("/f", "r+")
            yield m_home.pwrite(h, 0, v2)
            yield m_home.close(h)
            yield g.sim.timeout(0.1)  # let the invalidation push land

        run_io(g, overwrite())
        assert gw.lease_breaks >= 1
        assert read_all(g, m, "/f", len(v2)) == v2

    def test_expired_lease_revalidates_and_drops_stale(self):
        g, sdsc, ncsa, fs, gw = gateway_gfs(lease_duration=0.02)
        v1 = patterned(fs.block_size, seed=1)
        m_home = home_write(g, sdsc, "/f", v1)
        m = edge_mount(g, ncsa, gw)
        assert read_all(g, m, "/f", len(v1)) == v1

        v2 = patterned(fs.block_size, seed=2)

        def overwrite():
            yield g.sim.timeout(0.05)  # lease expires: no push possible
            h = yield m_home.open("/f", "r+")
            yield m_home.pwrite(h, 0, v2)
            yield m_home.close(h)

        run_io(g, overwrite())
        assert gw.lease_breaks == 0
        assert read_all(g, m, "/f", len(v2)) == v2
        assert gw.stale_invalidations >= 1
        assert gw.lease_renewals >= 2


def sever_wan(g, fs, gw):
    """Manually wire a PartitionState (what attach_faults does for E13)."""
    part = PartitionState(g.sim)
    fs.service.attach_partition(part)
    fs.messages.attach_partition(part)
    gw.attach_partition(part)
    return part


class TestPartition:
    def test_stale_reads_and_replay_on_heal(self):
        g, sdsc, ncsa, fs, gw = gateway_gfs(lease_duration=120.0)
        payload = patterned(2 * fs.block_size, seed=1)
        m_home = home_write(g, sdsc, "/f", payload)
        m = edge_mount(g, ncsa, gw)
        assert read_all(g, m, "/f", len(payload)) == payload
        part = sever_wan(g, fs, gw)
        inode = fs.namespace.resolve("/f")
        nsd_id, phys = fs.lookup_block(inode, 0)
        new_block = patterned(fs.block_size, seed=2)
        bs = fs.block_size

        def io():
            part.begin({"n0", "n1", "gw0"})
            # Read within the live lease: served from cache, no WAN.
            t0 = g.sim.now
            data = yield from gw.read_block("n0", inode, 0, (nsd_id, phys))
            assert data == payload[:bs]
            assert g.sim.now - t0 < 0.010  # far below one WAN RTT
            assert gw.stale_hits >= 1
            # Writeback write: acked locally while the WAN is down.
            yield from gw.write_block("n0", inode, 0, nsd_id, phys, 0, new_block)
            assert part.active
            acked_during_cut = gw.write_acks
            flushed_during_cut = gw.writes_flushed
            yield g.sim.timeout(0.5)
            assert gw.writes_flushed == flushed_during_cut  # still parked
            part.heal()
            yield g.sim.timeout(1.0)
            return acked_during_cut, flushed_during_cut

        acked, flushed_before = run_io(g, io())
        assert acked == flushed_before + 1
        assert gw.writes_flushed == acked  # replayed after heal, none lost
        assert gw.dirty_queue_depth == 0
        assert gw.conflicts == 0
        assert read_all(g, m_home, "/f", bs) == new_block

    def test_foreign_grant_during_cut_counts_conflict(self):
        g, sdsc, ncsa, fs, gw = gateway_gfs(lease_duration=120.0)
        payload = patterned(fs.block_size, seed=1)
        home_write(g, sdsc, "/f", payload)
        m = edge_mount(g, ncsa, gw)
        assert read_all(g, m, "/f", len(payload)) == payload  # lease live
        part = sever_wan(g, fs, gw)
        inode = fs.namespace.resolve("/f")
        nsd_id, phys = fs.lookup_block(inode, 0)
        wa = patterned(fs.block_size, seed=2)
        wb = patterned(fs.block_size, seed=3)

        def io():
            part.begin({"n0", "n1", "gw0"})
            # Two queued writes: the flusher parks mid-flight on the
            # first, the second is still queued when the cut heals.
            yield from gw.write_block("n0", inode, 0, nsd_id, phys, 0, wa)
            yield from gw.write_block("n0", inode, 0, nsd_id, phys, 0, wb)
            # A home-side client is granted rw during the cut (its token
            # path is WAN-free): the lease version advances under us.
            fs.token_manager.on_grant("s3", inode.ino, RW, 0, None)
            yield g.sim.timeout(0.2)
            part.heal()
            yield g.sim.timeout(1.0)

        run_io(g, io())
        assert gw.conflicts == 1  # detected, counted, last-writer-wins
        assert gw.writes_flushed == gw.write_acks
        assert gw.dirty_queue_depth == 0
        assert gw.lease_breaks >= 1  # parked push delivered at heal


class TestOneReadPath:
    """Tracing records, it never reroutes: every gateway read takes the
    same path with the flight recorder on or off, partition armed or
    not, lease live or lapsed."""

    @staticmethod
    def _sequence(traced, armed):
        if traced:
            TRACE.enable()
        try:
            g, sdsc, ncsa, fs, gw = gateway_gfs(lease_duration=0.05)
            bs = fs.block_size
            payload = patterned(3 * bs, seed=1)
            home_write(g, sdsc, "/f", payload)
            inode = fs.namespace.resolve("/f")
            placed = [fs.lookup_block(inode, b) for b in range(3)]
            part = sever_wan(g, fs, gw) if armed else None
            hop = fs.messages.delivery_time("n0", "gw0", 512.0)

            def read(*blocks):
                evts = [
                    g.sim.process(gw.read_block("n0", inode, b, placed[b]))
                    for b in blocks
                ]
                got = yield g.sim.all_of(evts)
                return [got[e] for e in evts]

            def lapse_in_flight():
                # The next reads leave half a control hop before the lease
                # runs out, so it lapses while their messages are in flight.
                left = gw._lease[inode.ino].expires_at - g.sim.now
                yield g.sim.timeout(left - hop / 2)

            def io():
                out = yield from read(0, 1, 2)  # cold: batched WAN fetch
                yield from lapse_in_flight()
                renewals = gw.lease_renewals
                out += yield from read(0, 1)  # one shared renewal, two hits
                assert gw.lease_renewals == renewals + 1
                if part is not None:
                    part.begin({"n0", "n1", "gw0"})
                out += yield from read(2)  # hit inside the live lease
                yield from lapse_in_flight()
                # This renewal parks on the cut until the heal.
                last = g.sim.process(gw.read_block("n0", inode, 2, placed[2]))
                yield g.sim.timeout(0.2)
                if part is not None:
                    assert not last.triggered
                    part.heal()
                out.append((yield last))
                return out

            values = run_io(g, io())
            blocks = [payload[b * bs:(b + 1) * bs] for b in (0, 1, 2, 0, 1, 2, 2)]
            assert values == blocks
            return values, gw.stale_hits, gw.lease_renewals, g.sim._seq, g.sim.now
        finally:
            TRACE.disable()
            TRACE.reset()

    @pytest.mark.parametrize("armed", [True, False], ids=["partition", "whole"])
    def test_trace_does_not_reroute(self, armed):
        untraced = self._sequence(False, armed)
        assert self._sequence(True, armed) == untraced
        assert untraced[1] == (1 if armed else 0)  # stale hits
