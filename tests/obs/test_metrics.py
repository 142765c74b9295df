"""Tests for the metric primitives: Counter, Gauge, Histogram."""

import pytest

from repro.obs.metrics import (
    BOUND_SCHEMES,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    canonical_key,
    counter_delta,
    merge_histograms,
    parse_key,
)


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5.0

    def test_negative_increment_rejected(self):
        with pytest.raises(MetricError):
            Counter("c").inc(-1)

    def test_reset_starts_new_window(self):
        c = Counter("c")
        c.inc(10)
        c.reset()
        c.inc(3)
        assert c.value == 3.0

    def test_counter_delta_plain_increase(self):
        assert counter_delta(10.0, 14.0) == 4.0

    def test_counter_delta_reset_aware(self):
        # A drop means the counter was reset mid-window: everything now
        # on it accumulated since the reset (Prometheus rate() semantics).
        assert counter_delta(10.0, 3.0) == 3.0


class TestGauge:
    def test_holds_the_last_value(self):
        g = Gauge("g")
        assert g.empty
        g.set(3.0)
        g.set(5)
        assert not g.empty
        assert g.last() == g.value == 5.0

    def test_unset_last_raises_naming_gauge(self):
        with pytest.raises(MetricError, match="'depth'"):
            Gauge("depth").last()


class TestHistogramBucketing:
    def test_boundary_value_lands_in_its_bucket(self):
        # le semantics: an observation exactly equal to a bound belongs
        # to that bound's bucket, deterministically (bisect, not log()).
        h = Histogram("h", bounds=[1.0, 2.0, 4.0])
        h.observe(2.0)
        assert h.counts == [0, 1, 0, 0]

    def test_just_above_boundary_goes_to_next_bucket(self):
        h = Histogram("h", bounds=[1.0, 2.0, 4.0])
        h.observe(2.0000001)
        assert h.counts == [0, 0, 1, 0]

    def test_overflow_bucket(self):
        h = Histogram("h", bounds=[1.0, 2.0])
        h.observe(100.0)
        assert h.counts == [0, 0, 1]

    def test_every_scheme_bound_is_its_own_bucket(self):
        h = Histogram("h")  # latency/v1
        for b in BOUND_SCHEMES["latency/v1"]:
            h.observe(b)
        assert h.counts[:-1] == [1] * len(h.bounds)
        assert h.counts[-1] == 0

    def test_bad_bounds_rejected(self):
        with pytest.raises(MetricError):
            Histogram("h", bounds=[])
        with pytest.raises(MetricError):
            Histogram("h", bounds=[1.0, 1.0])
        with pytest.raises(MetricError):
            Histogram("h", bounds=[2.0, 1.0])


class TestHistogramQuantiles:
    def test_interpolation_within_bucket(self):
        h = Histogram("h", bounds=[1.0, 2.0, 4.0])
        for _ in range(10):
            h.observe(1.2)
        for _ in range(10):
            h.observe(3.0)
        # rank 10 falls at the end of bucket (1, 2]: frac 1.0 → 2.0,
        # clamped to observed [1.2, 3.0].
        assert h.quantile(0.5) == 2.0
        # rank 20 interpolates to the top of bucket (2, 4] then clamps
        # to the observed maximum.
        assert h.quantile(1.0) == 3.0

    def test_clamped_to_observed_extremes(self):
        h = Histogram("h", bounds=[1.0, 2.0])
        h.observe(1.5)
        assert h.quantile(0.0) == 1.5
        assert h.quantile(0.99) == 1.5

    def test_percentile_properties(self):
        h = Histogram("h")
        for i in range(1000):
            h.observe(0.001 * (i + 1))
        assert h.p50 <= h.p95 <= h.p99 <= h.p999 <= h.max

    def test_empty_quantile_raises(self):
        with pytest.raises(MetricError):
            Histogram("h").quantile(0.5)

    def test_out_of_range_quantile_raises(self):
        h = Histogram("h")
        h.observe(1.0)
        with pytest.raises(MetricError):
            h.quantile(1.5)


class TestHistogramMerge:
    def test_merge_sums_buckets_and_extremes(self):
        a = Histogram("a", bounds=[1.0, 2.0])
        b = Histogram("b", bounds=[1.0, 2.0])
        a.observe(0.5)
        b.observe(1.5)
        b.observe(9.0)
        a.merge(b)
        assert a.count == 3
        assert a.counts == [1, 1, 1]
        assert a.min == 0.5
        assert a.max == 9.0
        assert a.sum == pytest.approx(11.0)

    def test_merge_different_bounds_rejected(self):
        a = Histogram("a", bounds=[1.0, 2.0])
        b = Histogram("b", bounds=[1.0, 3.0])
        with pytest.raises(MetricError):
            a.merge(b)

    def test_merge_histograms_helper(self):
        hs = []
        for i in range(3):
            h = Histogram(f"h{i}", bounds=[1.0, 2.0])
            h.observe(float(i))
            hs.append(h)
        merged = merge_histograms(hs, name="m")
        assert merged.count == 3
        assert merge_histograms([]).count == 0


class TestHistogramSnapshots:
    def test_roundtrip(self):
        h = Histogram("h")
        for v in (0.001, 0.01, 0.01, 5.0):
            h.observe(v)
        back = Histogram.from_dict(h.to_dict(), name="h")
        assert back.counts == h.counts
        assert back.count == h.count
        assert back.sum == h.sum
        assert back.min == h.min
        assert back.max == h.max

    def test_explicit_bounds_ride_along(self):
        h = Histogram("h", bounds=[1.0, 2.0])
        h.observe(1.5)
        d = h.to_dict()
        assert d["bounds"] == [1.0, 2.0]
        assert Histogram.from_dict(d).bounds == (1.0, 2.0)

    def test_delta_between_snapshots(self):
        h = Histogram("h", bounds=[1.0, 2.0])
        h.observe(0.5)
        prev = h.to_dict()
        h.observe(1.5)
        h.observe(1.6)
        d = Histogram.delta(prev, h.to_dict(), name="w")
        assert d.count == 2
        assert d.counts == [0, 2, 0]

    def test_delta_since_beginning(self):
        h = Histogram("h", bounds=[1.0])
        h.observe(0.5)
        d = Histogram.delta(None, h.to_dict())
        assert d.count == 1

    def test_count_le_is_conservative(self):
        h = Histogram("h", bounds=[1.0, 2.0])
        h.observe(0.5)
        h.observe(1.5)
        # A threshold inside bucket (1, 2] must not credit that bucket.
        assert h.count_le(1.7) == 1
        assert h.count_le(2.0) == 2


class TestKeys:
    def test_canonical_key_sorts_labels(self):
        assert canonical_key("m", {"b": "2", "a": "1"}) == "m{a=1,b=2}"
        assert canonical_key("m") == "m"

    def test_parse_roundtrip(self):
        key = canonical_key("nsd.rpc.total", {"op": "read", "sim": "1"})
        family, labels = parse_key(key)
        assert family == "nsd.rpc.total"
        assert labels == {"op": "read", "sim": "1"}
        assert parse_key("plain") == ("plain", {})
