"""E16 acceptance: manager failover with zero client-visible failures."""

from repro.experiments.e16_failover import E16


class TestE16Acceptance:
    @classmethod
    def setup_class(cls):
        cls.result = E16.run(quick=True)
        cls.metrics = cls.result.metrics

    def test_no_client_visible_failures(self):
        # The headline: the control plane died mid-stream and no
        # application read or write surfaced a failure.
        assert self.metrics["reads_failed"] == 0.0
        assert self.metrics["writes_failed"] == 0.0
        assert self.metrics["reads_ok"] > 0
        assert self.metrics["writes_ok"] > 0

    def test_one_takeover_rebuilt_without_mismatch(self):
        assert self.metrics["manager_takeovers"] == 1.0
        assert self.metrics["rebuild_mismatches"] == 0.0
        assert self.metrics["rebuilt_tokens"] >= 1.0
        assert self.metrics["replayed_clients"] >= 1.0
        assert self.metrics["manager_downs"] == 1.0

    def test_takeover_latency_within_budget(self):
        assert self.metrics["takeover_within_bound"] == 1.0
        # Detection is bounded by the lease plus one monitor sweep
        # (quick run: lease_duration=1.0).
        assert 0.0 < self.metrics["detection_latency"] <= 1.5

    def test_old_manager_rejoins_as_plain_server(self):
        assert self.metrics["recoveries"] >= 1.0

    def test_fuzz_cell_is_clean(self):
        assert self.metrics["fuzz_cases"] > 0
        assert self.metrics["fuzz_cases_passed"] == self.metrics["fuzz_cases"]
        assert self.metrics["fuzz_violations"] == 0.0
        assert self.metrics["fuzz_ops"] > 0

    def test_same_seed_identical_metrics(self):
        again = E16.run(quick=True)
        assert again.metrics == self.metrics  # bit-identical, not approx
