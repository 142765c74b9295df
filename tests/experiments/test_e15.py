"""E15 caching gateway: acceptance criteria as executable assertions."""

from repro.experiments.e15_gateway import E15, site_floor_s
from repro.util.units import MiB

FULL_CELLS = ("r20_f100_w0", "r20_f100_w25", "r80_f100_w0", "r80_f100_w25")
ALL_CELLS = FULL_CELLS + (
    "r20_f50_w0", "r20_f50_w25", "r80_f50_w0", "r80_f50_w25",
)


class TestE15Acceptance:
    @classmethod
    def setup_class(cls):
        cls.result = E15.run(quick=True)
        cls.metrics = cls.result.metrics

    def test_warm_reads_within_2x_site_floor(self):
        # The headline: once the working set is cache-resident, per-op
        # latency is the site-local floor — independent of WAN RTT.
        floor = site_floor_s(int(MiB(1)))
        for cell in FULL_CELLS:
            warm = self.metrics[f"{cell}_warm_mean_s"]
            assert warm <= 2.0 * floor, (cell, warm, floor)

    def test_warm_speedup_grows_with_rtt(self):
        # Direct mounts pay the RTT per op; warm gateway reads don't.
        assert (
            self.metrics["r80_f100_w0_warm_speedup"]
            > self.metrics["r20_f100_w0_warm_speedup"]
            > 1.5
        )

    def test_cold_reads_match_direct_mount(self):
        # The cache adds a LAN hop and a media write, never a second
        # WAN round trip: cold streaming stays within 1.5x direct.
        for cell in ALL_CELLS:
            assert self.metrics[f"{cell}_cold_vs_direct"] < 1.5, cell

    def test_small_cache_degrades_not_breaks(self):
        # Half-residency thrashes (low hit ratio) but still reads
        # correctly and never beats the full-residency config.
        assert (
            self.metrics["r80_f50_w0_hit_ratio"]
            < self.metrics["r80_f100_w0_hit_ratio"]
        )
        assert (
            self.metrics["r80_f50_w0_warm_mean_s"]
            > self.metrics["r80_f100_w0_warm_mean_s"]
        )

    def test_no_lost_acked_writes_in_sweep(self):
        for cell in ALL_CELLS:
            assert self.metrics[f"{cell}_lost_acked_writes"] == 0.0, cell
        # the mixed phases did exercise writeback
        assert self.metrics["r20_f100_w25_write_acks"] >= 1.0

    def test_chaos_partition_contract(self):
        # WAN cut mid-workload: every read inside the lease is served
        # (stale-within-lease from cache), writeback keeps acking, and
        # the queue replays at heal with nothing lost.
        assert self.metrics["chaos_partitions"] == 1.0
        assert self.metrics["chaos_heals"] == 1.0
        assert self.metrics["chaos_reads_failed"] == 0.0
        assert self.metrics["chaos_reads_ok"] == 140.0
        assert self.metrics["chaos_stale_hits"] >= 1.0
        assert self.metrics["chaos_lost_acked_writes"] == 0.0
        assert self.metrics["chaos_conflicts"] == 0.0
        assert (
            self.metrics["chaos_writes_flushed"]
            == self.metrics["chaos_write_acks"]
            >= 1.0
        )
        assert self.metrics["chaos_dirty_queue_end"] == 0.0

    def test_same_seed_identical_metrics(self):
        again = E15.run(quick=True)
        assert again.metrics == self.metrics  # bit-identical, not approx
