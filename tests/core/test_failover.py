"""Tests for NSD server failover and cluster command distribution."""

import pytest

from repro.core.nsd import NsdServerDown

from tests.core.testbed import mounted, run_io, small_gfs


class TestNsdFailover:
    def test_backups_assigned(self):
        g, cluster, fs, _ = small_gfs(nsd_servers=4)
        assert set(fs.service.backup_servers) == {0, 1, 2, 3}
        for nsd_id, backups in fs.service.backup_servers.items():
            assert backups[0].node != fs.service.servers[nsd_id].node

    def test_io_survives_primary_death(self):
        g, cluster, fs, _ = small_gfs(nsd_servers=4)
        m = mounted(g, cluster, node="c0")
        payload = b"durable!" * (4 * fs.block_size // 8)  # spans every NSD

        def write_io():
            h = yield m.open("/f", "w", create=True)
            yield m.write(h, payload)
            yield m.close(h)

        run_io(g, write_io())
        fs.service.mark_down("nsd0")
        m.pool.invalidate(fs.namespace.resolve("/f").ino)

        def read_io():
            h = yield m.open("/f", "r")
            return (yield m.read(h, len(payload)))

        assert run_io(g, read_io()) == payload
        assert fs.service.failovers > 0

    def test_failed_coalesced_fetch_reaches_the_reader(self):
        # A multi-block run whose only server is down must fail the
        # reader's read, not escape from an unwatched process, and must
        # release every block it had in flight.
        g, cluster, fs, _ = small_gfs(nsd_servers=1, store_data=True)
        m = mounted(g, cluster, node="c0", max_coalesce=8)
        bs = fs.block_size

        def write_io():
            h = yield m.open("/f", "w", create=True)
            yield m.write(h, bytes(range(256)) * (16 * bs // 256))
            yield m.close(h)

        run_io(g, write_io())
        m.pool.invalidate(fs.namespace.resolve("/f").ino)
        fs.service.mark_down("nsd0")

        def read_io():
            h = yield m.open("/f", "r")
            try:
                yield m.read(h, 4 * bs)
            except NsdServerDown as exc:
                return exc
            return None

        assert isinstance(run_io(g, read_io()), NsdServerDown)
        assert m._fetching == {}

    def test_all_servers_down_raises(self):
        g, cluster, fs, _ = small_gfs(nsd_servers=2)
        for node in ["nsd0", "nsd1"]:
            fs.service.mark_down(node)
        with pytest.raises(NsdServerDown):
            fs.service.server_of(0)

    def test_recovery_restores_primary(self):
        g, cluster, fs, _ = small_gfs(nsd_servers=2)
        primary = fs.service.servers[0]
        fs.service.mark_down(primary.node)
        assert fs.service.server_of(0) is not primary
        fs.service.mark_up(primary.node)
        assert fs.service.server_of(0) is primary

    def test_single_server_cluster_has_no_backups(self):
        g, cluster, fs, _ = small_gfs(nsd_servers=1)
        assert fs.service.backup_servers == {}

    def test_failovers_count_transitions_not_block_ops(self):
        # Routing N blocks to the backup is ONE failover, not N.
        g, cluster, fs, _ = small_gfs(nsd_servers=4)
        fs.service.mark_down("nsd0")
        for _ in range(5):
            fs.service.server_of(0)
        assert fs.service.failovers == 1
        assert len(fs.service.failover_events) == 1
        t, nsd_id, from_node, to_node = fs.service.failover_events[0]
        assert (nsd_id, from_node) == (0, "nsd0")
        assert to_node != "nsd0"

    def test_failback_not_counted(self):
        g, cluster, fs, _ = small_gfs(nsd_servers=4)
        fs.service.mark_down("nsd0")
        fs.service.server_of(0)
        fs.service.mark_up("nsd0")
        fs.service.server_of(0)  # back on the primary: not a failover
        assert fs.service.failovers == 1
        fs.service.mark_down("nsd0")
        fs.service.server_of(0)  # a second genuine transition
        assert fs.service.failovers == 2


class TestConfigServers:
    def test_primary_and_secondary(self):
        g, cluster, fs, _ = small_gfs()
        assert cluster.primary_config_server == "nsd0"
        assert cluster.secondary_config_server == "nsd1"

    def test_failover_to_secondary(self):
        g, cluster, fs, _ = small_gfs()
        assert cluster.active_config_server({"nsd0"}) == "nsd1"

    def test_both_down_raises(self):
        from repro.core.cluster import ClusterError

        g, cluster, fs, _ = small_gfs()
        with pytest.raises(ClusterError):
            cluster.active_config_server({"nsd0", "nsd1"})


class TestMmdsh:
    def test_reaches_all_nodes(self):
        g, cluster, fs, _ = small_gfs(nsd_servers=4, clients=2)
        count = g.run(until=cluster.mmdsh())
        assert count == 6
        assert g.sim.now > 0  # paid fan-out round trips

    def test_runs_from_secondary_when_primary_down(self):
        g, cluster, fs, _ = small_gfs()
        count = g.run(until=cluster.mmdsh(down_nodes={"nsd0"}))
        assert count == len(cluster.nodes)
