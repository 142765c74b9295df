"""Integration tests: harness wiring, invariance, ride-through, determinism."""

from repro.faults import (
    DiskLeaseDetector,
    FaultSchedule,
    NodeHealth,
    RetryPolicy,
    attach_faults,
)

from tests.core.testbed import mounted, run_io, small_gfs

PAYLOAD = 16 * 1024 * 1024  # 16 MiB — 64 blocks, round-robin over 4 NSDs


def _write_file(g, m, nbytes=PAYLOAD, path="/f"):
    payload = b"\0" * int(nbytes)

    def gen():
        h = yield m.open(path, "w", create=True)
        yield m.write(h, payload)
        yield m.close(h)

    run_io(g, gen())


def _read_file(g, m, nbytes=PAYLOAD, path="/f", chunk=1024 * 1024):
    failed = [0]

    def gen():
        h = yield m.open(path, "r")
        pos = 0
        while pos < nbytes:
            n = min(chunk, nbytes - pos)
            try:
                yield m.pread(h, pos, n)
            except ConnectionError:
                failed[0] += 1
            pos += n
        yield m.close(h)

    run_io(g, gen())
    return failed[0]


class TestEmptyScheduleInvariance:
    def _workload(self, with_harness):
        g, cluster, fs, _ = small_gfs(nsd_servers=4)
        m = mounted(g, cluster, node="c0")
        if with_harness:
            attach_faults(
                g.sim, fs.service, manager_node="nsd0",
                schedule=FaultSchedule(), engine=g.engine,
                network=g.network, lease_duration=1.0,
                retry=RetryPolicy(),
                retry_rng_streams=g.rng,
                token_managers=[fs.token_manager],
            )
        _write_file(g, m)
        m.pool.invalidate(fs.namespace.resolve("/f").ino)
        assert _read_file(g, m) == 0
        return g.sim.now

    def test_attached_but_empty_changes_nothing(self):
        # Heartbeats are latency-only and the retry wrapper adds no sim
        # time on success, so completion time must be *exactly* equal.
        assert self._workload(False) == self._workload(True)


class TestRideThrough:
    def test_crash_detect_failover_restart_zero_failures(self):
        g, cluster, fs, _ = small_gfs(nsd_servers=4)
        m = mounted(g, cluster, node="c0")
        _write_file(g, m, nbytes=64 * 1024 * 1024)
        m.pool.invalidate(fs.namespace.resolve("/f").ino)
        t0 = g.sim.now
        harness = attach_faults(
            g.sim, fs.service, manager_node="nsd0",
            schedule=(
                FaultSchedule()
                .crash_node(t0 + 0.1, "nsd1")
                .restart_node(t0 + 1.2, "nsd1")
            ),
            engine=g.engine, network=g.network, lease_duration=0.4,
            retry=RetryPolicy(),
            retry_rng_streams=g.rng,
            token_managers=[fs.token_manager],
        )
        failed = _read_file(g, m, nbytes=64 * 1024 * 1024)
        g.run(until=g.sim.timeout(2.0))  # outlive the restart + renewal
        harness.stop()
        assert failed == 0
        metrics = harness.metrics()
        assert metrics["failures_detected"] == 1.0
        # small_gfs has one NSD per server: exactly one transition, no
        # matter how many blocks were re-routed to the backup.
        assert metrics["failovers"] == 1.0
        lease_bound = 0.4 + harness.detector.check_interval + 1e-9
        assert metrics["detection_latency_max"] <= lease_bound
        assert metrics["recoveries"] == 1.0

    def test_harness_metrics_shape(self):
        g, cluster, fs, _ = small_gfs(nsd_servers=4)
        harness = attach_faults(
            g.sim, fs.service, manager_node="nsd0",
            schedule=FaultSchedule(), engine=g.engine, network=g.network,
            retry=RetryPolicy(), token_managers=[fs.token_manager],
        )
        m = harness.metrics()
        for key in ("lease_duration", "failovers", "rpc_retries",
                    "rpc_timeouts", "faults_injected",
                    "dead_holder_releases"):
            assert key in m
        g.run(until=g.sim.timeout(0.01))  # let the injector drain
        assert harness.schedule_done


class TestDeadHolderTokens:
    def test_dead_rw_holder_released_after_lease(self):
        g, cluster, fs, _ = small_gfs(nsd_servers=4, clients=2)
        m0 = mounted(g, cluster, node="c0")
        m1 = mounted(g, cluster, node="c1")
        _write_file(g, m0, nbytes=256 * 1024)  # c0 holds RW tokens on /f
        health = NodeHealth(g.sim)
        detector = DiskLeaseDetector(
            g.sim, fs.service, health, manager_node="nsd0",
            nodes=["c0"], lease_duration=0.5,
            token_managers=[fs.token_manager],
        )
        fs.token_manager.failure_detector = detector
        detector.start()
        g.run(until=g.sim.timeout(0.2))
        health.crash("c0")
        t_crash = g.sim.now

        def conflicting_write():
            h = yield m1.open("/f", "w")
            yield m1.write(h, b"\1" * (256 * 1024))
            yield m1.close(h)

        run_io(g, conflicting_write())
        detector.stop()
        # The manager waited for the lease declaration instead of
        # messaging the corpse forever: the conflicting write could only
        # complete at/after the declaration instant.
        assert fs.token_manager.dead_holder_releases >= 1
        assert detector.detections and detector.detections[0][0] == "c0"
        assert g.sim.now >= detector.detections[0][1] > t_crash
        assert fs.token_manager.client_ranges(
            fs.namespace.resolve("/f").ino, "c0"
        ) == []


class TestE13Determinism:
    def test_same_seed_identical_metrics(self):
        from repro.experiments.e13_chaos import run_e13_quick

        a = run_e13_quick()
        b = run_e13_quick()
        assert a.metrics == b.metrics  # bit-identical, not approx
        assert a.metrics["reads_failed"] == 0.0
        assert a.metrics["failures_detected"] == 1.0
        assert a.metrics["recoveries"] == 1.0
        assert a.metrics["rpc_retries"] > 0


class TestTelemetry:
    def test_harnesses_in_two_universes_share_one_registry(self):
        # A fault cell riding inside an experiment (E16's fuzz storm) is a
        # second universe with its own detector: the sim label keeps the
        # faults.* families of the two apart.
        from repro.obs import OBS

        OBS.reset()
        OBS.enable()
        try:
            for _ in range(2):
                g, _cluster, fs, _ = small_gfs(nsd_servers=4)
                harness = attach_faults(
                    g.sim, fs.service, manager_node="nsd0",
                    schedule=FaultSchedule().crash_node(0.1, "nsd1"),
                    engine=g.engine, network=g.network, lease_duration=0.4,
                )
                g.run(until=g.sim.timeout(1.0))
                harness.stop()
            reading = OBS.read()
        finally:
            OBS.disable()
            OBS.reset()
        detections = {
            key: value for key, value in reading["counters"].items()
            if key.startswith("faults.detections")
        }
        assert len(detections) == 2
        assert all("{sim=" in key for key in detections)
        assert set(detections.values()) == {1.0}
        assert sum(
            value for key, value in reading["gauges"].items()
            if key.startswith("faults.detected_down")
        ) == 2.0
