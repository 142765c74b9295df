"""Unit + property tests for max-min fair allocation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.fairshare import FairshareState, link_utilization, max_min_rates

INF = float("inf")


class TestBasics:
    def test_empty(self):
        assert max_min_rates([10.0], [], []).size == 0

    def test_single_flow_takes_link(self):
        rates = max_min_rates([100.0], [[0]], [INF])
        assert rates[0] == pytest.approx(100.0)

    def test_two_flows_split_evenly(self):
        rates = max_min_rates([100.0], [[0], [0]], [INF, INF])
        assert list(rates) == pytest.approx([50.0, 50.0])

    def test_cap_limited_flow_releases_bandwidth(self):
        rates = max_min_rates([100.0], [[0], [0]], [10.0, INF])
        assert rates[0] == pytest.approx(10.0)
        assert rates[1] == pytest.approx(90.0)

    def test_flow_on_two_links_gets_bottleneck(self):
        rates = max_min_rates([100.0, 30.0], [[0, 1]], [INF])
        assert rates[0] == pytest.approx(30.0)

    def test_classic_max_min_example(self):
        # Link A (cap 10) shared by f0, f1; f1 also crosses link B (cap 3).
        # f1 is bottlenecked at 3 on B; f0 then takes 7 on A.
        rates = max_min_rates([10.0, 3.0], [[0], [0, 1]], [INF, INF])
        assert rates[1] == pytest.approx(3.0)
        assert rates[0] == pytest.approx(7.0)

    def test_pathless_flow_gets_cap(self):
        rates = max_min_rates([10.0], [[], [0]], [5.0, INF])
        assert rates[0] == pytest.approx(5.0)
        assert rates[1] == pytest.approx(10.0)

    def test_pathless_needs_finite_cap(self):
        with pytest.raises(ValueError):
            max_min_rates([10.0], [[]], [INF])

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            max_min_rates([0.0], [[0]], [1.0])
        with pytest.raises(ValueError):
            max_min_rates([10.0], [[0]], [0.0])
        with pytest.raises(ValueError):
            max_min_rates([10.0], [[0]], [1.0, 2.0])

    def test_negative_link_id_rejected(self):
        # Unchecked, numpy indexing would route -1 over the last link.
        with pytest.raises(ValueError, match="flow 1 crosses link id -1"):
            max_min_rates([1e9, 5e8], [[0], [-1]], [INF, INF])
        with pytest.raises(ValueError, match="flow 1 crosses link id -1"):
            link_utilization([1e9, 5e8], [[0], [-1]], [1e8, 1e8])

    def test_link_id_past_the_end_rejected(self):
        with pytest.raises(ValueError, match="flow 0 crosses link id 2"):
            max_min_rates([1e9, 5e8], [[0, 2]], [INF])

    def test_state_rejects_negative_link_id_untouched(self):
        state = FairshareState([1e9, 5e8], capacity=2)
        with pytest.raises(ValueError, match="negative link id -1"):
            state.add_flow([0, -1], INF)
        assert state.nactive == 0
        assert state.capacity == 2
        assert state.solve()[0].size == 0

    def test_parallel_streams_aggregate_to_line_rate(self):
        # The paper's key effect: N window-capped streams fill the WAN pipe.
        wan = 1.25e9  # 10 GbE in bytes/s
        per_stream_cap = 0.8e6 * 100  # 80 MB/s cap each (window/RTT)
        n = 32
        rates = max_min_rates([wan], [[0]] * n, [per_stream_cap] * n)
        assert rates.sum() == pytest.approx(min(wan, n * per_stream_cap))

    def test_many_equal_flows_fill_link(self):
        rates = max_min_rates([100.0], [[0]] * 7, [INF] * 7)
        assert rates.sum() == pytest.approx(100.0)
        assert np.allclose(rates, 100.0 / 7)

    def test_utilization_helper(self):
        caps = [100.0, 30.0]
        flows = [[0], [0, 1]]
        rates = max_min_rates(caps, flows, [INF, INF])
        util = link_utilization(caps, flows, rates)
        assert util[0] == pytest.approx(1.0)
        assert util[1] == pytest.approx(1.0)


# -- property-based ------------------------------------------------------------

link_caps_st = st.lists(st.floats(1.0, 1e10), min_size=1, max_size=8)


@st.composite
def allocation_problem(draw):
    caps = draw(link_caps_st)
    nlinks = len(caps)
    nflows = draw(st.integers(1, 12))
    flow_links = [
        sorted(
            draw(
                st.sets(st.integers(0, nlinks - 1), min_size=1, max_size=min(4, nlinks))
            )
        )
        for _ in range(nflows)
    ]
    flow_caps = draw(
        st.lists(
            st.one_of(st.floats(0.5, 1e9), st.just(INF)),
            min_size=nflows,
            max_size=nflows,
        )
    )
    return caps, flow_links, flow_caps


@settings(max_examples=200, deadline=None)
@given(allocation_problem())
def test_no_link_oversubscribed(problem):
    caps, flow_links, flow_caps = problem
    rates = max_min_rates(caps, flow_links, flow_caps)
    used = np.zeros(len(caps))
    for f, path in enumerate(flow_links):
        for l in path:
            used[l] += rates[f]
    assert np.all(used <= np.asarray(caps) * (1 + 1e-6))


@settings(max_examples=200, deadline=None)
@given(allocation_problem())
def test_every_flow_gets_positive_rate(problem):
    caps, flow_links, flow_caps = problem
    rates = max_min_rates(caps, flow_links, flow_caps)
    assert np.all(rates > 0)


@settings(max_examples=200, deadline=None)
@given(allocation_problem())
def test_no_flow_exceeds_cap(problem):
    caps, flow_links, flow_caps = problem
    rates = max_min_rates(caps, flow_links, flow_caps)
    for rate, cap in zip(rates, flow_caps):
        assert rate <= cap * (1 + 1e-6)


@settings(max_examples=200, deadline=None)
@given(allocation_problem())
def test_pareto_saturation(problem):
    """Every flow is either at its cap or crosses a ~fully-used link."""
    caps, flow_links, flow_caps = problem
    rates = max_min_rates(caps, flow_links, flow_caps)
    used = np.zeros(len(caps))
    for f, path in enumerate(flow_links):
        for l in path:
            used[l] += rates[f]
    for f, path in enumerate(flow_links):
        at_cap = rates[f] >= flow_caps[f] * (1 - 1e-6)
        bottlenecked = any(used[l] >= caps[l] * (1 - 1e-6) for l in path)
        assert at_cap or bottlenecked, (rates[f], flow_caps[f], path)


@settings(max_examples=100, deadline=None)
@given(allocation_problem())
def test_allocation_deterministic(problem):
    caps, flow_links, flow_caps = problem
    a = max_min_rates(caps, flow_links, flow_caps)
    b = max_min_rates(caps, flow_links, flow_caps)
    assert np.array_equal(a, b)
