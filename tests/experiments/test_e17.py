"""E17 fleet sweep: aggregation is exact, bounded and deterministic."""

from repro.experiments.e17_fleet import run_e17

#: Derived from the wall clock, so they differ run to run.
WALL_CLOCK = ("speedup_vs_unaggregated", "wall_per_sim_s")


def simulated(metrics):
    return {k: v for k, v in metrics.items() if k not in WALL_CLOCK}


class TestE17Acceptance:
    @classmethod
    def setup_class(cls):
        cls.metrics = cls.run().metrics

    @staticmethod
    def run():
        return run_e17(client_counts=(128,), compare_at=128, rounds=3)

    def test_aggregated_engine_bit_identical(self):
        assert self.metrics["bit_identical"] == 1.0

    def test_columns_reduced_and_bounded(self):
        assert self.metrics["column_reduction"] >= 5.0
        assert self.metrics["solver_cols_peak"] <= 128

    def test_same_seed_identical_metrics(self):
        again = simulated(self.run().metrics)
        assert set(WALL_CLOCK) <= set(self.metrics)
        assert again == simulated(self.metrics)  # bit-identical, not approx
