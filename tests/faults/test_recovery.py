"""Manager-failover tests: election, takeover, redirects, lock hygiene."""

from repro.core.tokens import RW
from repro.faults import (
    DiskLeaseDetector,
    FaultSchedule,
    NodeHealth,
    RetryPolicy,
    attach_faults,
)
from repro.faults.recovery import _table_keys
from repro.sim.kernel import Event

from tests.core.testbed import mounted, run_io, small_gfs

SIZE = 256 * 1024


def _write(g, m, path, nbytes=SIZE, fill=b"\x07"):
    def gen():
        h = yield m.open(path, "w", create=True)
        yield m.pwrite(h, 0, fill * nbytes)
        yield m.fsync(h)
        yield m.close(h)

    run_io(g, gen())


def failover_scenario(lease=0.5, sweep=0.1, crash_after=0.2, restart_after=4.0):
    """Two clients holding tokens; the manager dies and later rejoins."""
    g, cluster, fs, _ = small_gfs(nsd_servers=4, clients=2)
    m0 = mounted(g, cluster, node="c0")
    m1 = mounted(g, cluster, node="c1")
    _write(g, m0, "/a")
    _write(g, m1, "/b")
    t0 = g.sim.now
    schedule = (
        FaultSchedule()
        .crash_manager(t0 + crash_after, fs.manager_node)
        .restart_node(t0 + restart_after, fs.manager_node)
    )
    harness = attach_faults(
        g.sim, fs.service, manager_node=fs.manager_node,
        schedule=schedule, engine=g.engine, network=g.network,
        lease_duration=lease, retry=RetryPolicy(),
        retry_rng_streams=g.rng,
        token_managers=[fs.token_manager], filesystem=fs,
        election_sweep=sweep,
    )
    return g, fs, harness, (m0, m1)


class TestManagerTakeover:
    def test_takeover_rebuilds_table_and_moves_role(self):
        g, fs, harness, (m0, _m1) = failover_scenario()
        tm = fs.token_manager
        old = fs.manager_node
        ghost = _table_keys(tm._held)
        assert ghost  # both clients hold tokens going into the outage
        g.run(until=g.sim.timeout(2.5))  # crash -> detect -> take over
        rec = harness.recovery
        assert rec is not None and len(rec.takeovers) == 1
        dead, successor, t_detect, t_done = rec.takeovers[0]
        assert dead == old
        assert successor == "nsd1"  # lowest-id live quorum-holding server
        assert t_done > t_detect
        assert fs.manager_node == successor and tm.node == successor
        assert tm.epoch == 1
        assert rec.rebuild_mismatches == 0
        assert rec.replayed_clients == 2  # c0 and c1 both answered
        # Every holder survived the crash, so the replay rebuild must
        # reproduce the pre-crash table exactly.
        assert _table_keys(tm._held) == ghost
        # The control-plane outage is marked distinctly from the reroute.
        assert fs.service.manager_downs == 1
        metrics = harness.metrics()
        assert metrics["manager_downs"] == 1.0
        assert metrics["manager_takeovers"] == 1.0
        assert metrics["manager_elections"] >= 1.0
        # Grants flow against the successor.
        _write(g, m0, "/after")
        # Outlive the old manager's restart: it rejoins as a plain server.
        g.run(until=g.sim.timeout(3.0))
        harness.stop()
        assert harness.detector.recoveries
        assert old in {r[0] for r in harness.detector.recoveries}

    def test_takeover_is_deterministic(self):
        def run_once():
            g, fs, harness, _ = failover_scenario()
            g.run(until=g.sim.timeout(6.0))
            harness.stop()
            return harness.recovery.takeovers, harness.metrics()

        takeovers_a, metrics_a = run_once()
        takeovers_b, metrics_b = run_once()
        assert takeovers_a == takeovers_b  # bit-identical, not approx
        assert metrics_a == metrics_b

    def test_outage_write_parks_then_redirects(self):
        g, fs, harness, (_m0, m1) = failover_scenario()
        tm = fs.token_manager
        done = [False]

        def late_write():
            # Issued after the crash, before the takeover completes: the
            # acquire parks at the manager fence, aborts with
            # ManagerMovedError when the epoch advances, and the token
            # client re-issues it at the successor.
            yield g.sim.timeout(0.4)
            h = yield m1.open("/during", "w", create=True)
            yield m1.pwrite(h, 0, b"\x01" * SIZE)
            yield m1.fsync(h)
            yield m1.close(h)
            done[0] = True

        g.sim.process(late_write(), name="late-write")
        g.run(until=g.sim.timeout(5.0))
        harness.stop()
        assert done[0]  # the application never saw the outage
        assert tm.redirects >= 1


class TestRevokeLockHygiene:
    def test_holder_death_mid_revoke_does_not_leak_ino_lock(self):
        """Regression: a holder dying while its revoke-flush is wedged
        used to leave the per-ino lock held forever."""
        g, cluster, fs, _ = small_gfs(nsd_servers=4, clients=3)
        m0 = mounted(g, cluster, node="c0")
        _write(g, m0, "/f")
        ino = fs.namespace.resolve("/f").ino
        tm = fs.token_manager

        def wedge(ino_, lo, hi):
            yield Event(g.sim)  # a flush that never completes

        tm.register_client("c2", wedge)
        g.run(until=tm.acquire("c2", ino, 0, SIZE, RW))

        health = NodeHealth(g.sim)
        detector = DiskLeaseDetector(
            g.sim, fs.service, health, manager_node="nsd0",
            nodes=["c2"], lease_duration=0.5, token_managers=[tm],
        )
        tm.failure_detector = detector
        detector.start()
        g.run(until=g.sim.timeout(0.2))  # c2 renews: responsive on entry

        def rewrite():
            h = yield m0.open("/f", "w")
            yield m0.pwrite(h, 0, b"\x02" * SIZE)
            yield m0.fsync(h)
            yield m0.close(h)

        proc = g.sim.process(rewrite(), name="conflicting-write")
        g.run(until=g.sim.timeout(0.05))  # revoke dispatched, flush wedged
        assert not proc.triggered
        health.crash("c2")
        g.run(until=proc)  # hangs forever without the crash-time sweep
        detector.stop()
        assert tm.revokes_abandoned_dead == 1
        assert tm.dead_holder_releases >= 1
        assert tm.client_ranges(ino, "c2") == []
        # The per-ino lock drained: a fresh acquire completes.
        g.run(until=tm.acquire("c0", ino, 0, SIZE, RW))


class TestManagerDownMarker:
    def test_mark_down_counts_only_manager_nodes(self):
        g, cluster, fs, _ = small_gfs(nsd_servers=4)
        assert fs.manager_node in fs.service.manager_nodes
        fs.service.mark_down(fs.manager_node)
        assert fs.service.manager_downs == 1
        fs.service.mark_down("nsd1")  # ordinary server: data-path only
        assert fs.service.manager_downs == 1

    def test_move_manager_retargets_marker_set(self):
        g, cluster, fs, _ = small_gfs(nsd_servers=4)
        old = fs.manager_node
        fs.move_manager("nsd2")
        assert fs.manager_node == "nsd2"
        assert "nsd2" in fs.service.manager_nodes
        assert old not in fs.service.manager_nodes
        fs.service.mark_down(old)  # demoted node no longer counts
        assert fs.service.manager_downs == 0
