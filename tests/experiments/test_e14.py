"""E14 integrity soak: acceptance criteria as executable assertions."""

from repro.experiments.e14_integrity import E14, damage_at_rest, pattern_chunk


class TestPatternChunk:
    def test_deterministic_and_chunk_distinct(self):
        assert pattern_chunk(3, 64) == pattern_chunk(3, 64)
        assert pattern_chunk(3, 64) != pattern_chunk(4, 64)

    def test_length_exact(self):
        for n in (0, 1, 8, 9, 10, 1000):
            assert len(pattern_chunk(0, n)) == n


class TestE14Acceptance:
    @classmethod
    def setup_class(cls):
        cls.result = E14.run(quick=True)
        cls.metrics = cls.result.metrics

    def test_zero_wrong_bytes(self):
        # The headline: rot + a dead drive + a partition, and the
        # application never sees a single wrong byte or failed read.
        assert self.metrics["wrong_bytes"] == 0.0
        assert self.metrics["reads_failed"] == 0.0
        assert self.metrics["corrupt_reads_served_correctly_pct"] == 100.0

    def test_rot_was_actually_injected_and_detected(self):
        assert self.metrics["corrupt_blocks_injected"] >= 3.0
        # readers tripped over some of it (verify-on-read + failover) ...
        assert self.metrics["corrupt_reads_detected"] >= 1.0
        assert self.metrics["degraded_reads"] >= 1.0
        # ... and the scrubber found the cold replica no reader touches
        assert self.metrics["scrub_rot_found"] >= 1.0

    def test_every_damaged_replica_repaired(self):
        assert self.metrics["damage_at_rest_end"] == 0.0
        repairs = (
            self.metrics["read_repairs"] + self.metrics["scrub_repairs"]
        )
        assert repairs >= self.metrics["corrupt_blocks_injected"] - (
            self.metrics["corrupt_reads_detected"]  # dedup: one repair per block
        )
        assert repairs >= 1.0
        assert self.metrics["scrub_repair_failures"] == 0.0

    def test_partition_exercised_without_split_brain(self):
        assert self.metrics["partitions"] == 1.0
        assert self.metrics["partition_heals"] == 1.0
        assert self.metrics["partition_parked_rpcs"] >= 1.0
        assert self.metrics["quorum_denials"] >= 1.0
        assert self.metrics["quorum_suppressed_checks"] >= 1.0
        # the quorumless minority never declared the majority dead
        assert self.metrics["failures_detected"] == 0.0
        assert self.metrics["unavailability_s"] > 0.0

    def test_scrub_cost_reported(self):
        assert self.metrics["scrub_bytes_read"] > 0.0
        assert self.metrics["scrub_overhead_ratio"] > 0.0

    def test_same_seed_identical_metrics(self):
        again = E14.run(quick=True)
        assert again.metrics == self.metrics  # bit-identical, not approx


class TestDamageAtRest:
    def test_counts_and_clears(self):
        from repro.core.replication import ReplicationPolicy

        from tests.core.testbed import mounted, run_io, small_gfs

        g, cluster, fs, _ = small_gfs(
            nsd_servers=4, replication=ReplicationPolicy(copies=2)
        )
        m = mounted(g, cluster, node="c0")

        def gen():
            h = yield m.open("/f", "w", create=True)
            yield m.write(h, b"\x21" * (4 * 256 * 1024))
            yield m.close(h)

        run_io(g, gen())
        assert damage_at_rest(fs) == 0
        inode = fs.namespace.resolve("/f")
        nsd_id, phys = fs.replica_placements(inode, 0)[1]
        fs.nsds[nsd_id].corrupt(phys)
        assert damage_at_rest(fs) == 1
        fs.nsds[nsd_id].store(phys, 0, b"\x21" * 256 * 1024)
        assert damage_at_rest(fs) == 0
