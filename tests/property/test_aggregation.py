"""Route-class aggregation is an optimization, not an approximation.

The load-bearing claims from the fairshare/flow module docstrings, pinned
bit-for-bit:

* a weight-``w`` solver column gets the same rate as ``w`` separate
  weight-1 columns would, under any topology;
* permuting the solver's columns permutes the rates and moves no bit;
* an aggregated :class:`FlowEngine` and an unaggregated one, driven by
  the same schedule, produce identical per-flow rate series, tag series,
  completion times, and churn counters;
* class join/leave round-trips (weight churn, parking at 0, rejoin)
  leave the solver's rates equal to a fresh build of the final state.
"""

import functools
import itertools
import operator

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net import FlowEngine, Network, TcpModel
from repro.net.fairshare import FairshareState, _path_table, _water_fill, max_min_rates
from repro.sim import Simulation
from repro.util.units import GB, MB


# -- solver-level properties --------------------------------------------------

link_caps_st = st.lists(st.floats(1e5, 4e9), min_size=1, max_size=6)


@st.composite
def weighted_problem(draw):
    caps = draw(link_caps_st)
    nclasses = draw(st.integers(1, 5))
    links, fcaps, weights = [], [], []
    for _ in range(nclasses):
        path = draw(st.lists(st.integers(0, len(caps) - 1),
                             unique=True, max_size=len(caps)))
        links.append(path)
        if path:
            fcaps.append(draw(st.sampled_from(
                [1e5, 3.7e7, 1e9, float("inf")])))
        else:
            fcaps.append(draw(st.sampled_from([1e5, 3.7e7, 1e9])))
        weights.append(draw(st.integers(1, 23)))
    return caps, links, fcaps, weights


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problem=weighted_problem())
def test_weighted_solve_equals_expanded(problem):
    """One weight-w column == w weight-1 columns, bit for bit."""
    caps, links, fcaps, weights = problem
    agg = max_min_rates(caps, links, fcaps, weights)
    exp_links = [p for p, w in zip(links, weights) for _ in range(w)]
    exp_caps = [c for c, w in zip(fcaps, weights) for _ in range(w)]
    flat = max_min_rates(caps, exp_links, exp_caps)
    expanded = np.concatenate(
        [np.full(w, r) for r, w in zip(agg, weights)]
    )
    assert expanded.tobytes() == flat.tobytes()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_column_permutation_permutes_rates_exactly(data):
    """Solving permuted columns yields the permuted rates, bit for bit."""
    caps, links, _, weights = data.draw(weighted_problem())
    # Arbitrary caps: the sum of a round's distinct capped rates then
    # depends on the order they are subtracted in.
    fcaps = data.draw(st.lists(
        st.one_of(st.floats(1e5, 4e9), st.just(float("inf"))),
        min_size=len(links), max_size=len(links)))
    fcaps = [c if p else min(c, 4e9) for c, p in zip(fcaps, links)]
    perm = data.draw(st.permutations(range(len(links))))
    rates = max_min_rates(caps, links, fcaps, weights)
    permuted = max_min_rates(caps, [links[i] for i in perm],
                             [fcaps[i] for i in perm],
                             [weights[i] for i in perm])
    assert permuted.tobytes() == rates[list(perm)].tobytes()


def test_drain_order_is_by_rate_not_by_column():
    """One round caps three distinct rates on one link.

    Subtracting them from the link in column order leaves a remainder
    that depends on the order, and the uncapped flow gets that
    remainder. Every column order must give the same bits, from both
    solvers: ``max_min_rates`` sends four columns to the scalar one, so
    the numpy one is also called directly.
    """
    link = 624_020_552.04
    fcaps = [132_219_273.71, 119_176_387.38, 39_866_571.66, float("inf")]
    remainders = {functools.reduce(operator.sub, order, link)
                  for order in itertools.permutations(fcaps[:3])}
    assert len(remainders) > 1  # the case really is order-sensitive
    rates = max_min_rates([link], [[0]] * 4, fcaps)
    assert list(rates[:3]) == fcaps[:3]
    table = _path_table([[0]] * 4)
    for perm in itertools.permutations(range(4)):
        permuted = max_min_rates([link], [[0]] * 4, [fcaps[i] for i in perm])
        assert permuted.tobytes() == rates[list(perm)].tobytes(), perm
        direct = _water_fill(table, np.array([link]),
                             np.array([fcaps[i] for i in perm]), np.ones(4))
        assert direct.tobytes() == rates[list(perm)].tobytes(), perm


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problem=weighted_problem(),
       churn=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 23)),
                      max_size=30))
def test_join_leave_roundtrip_equals_fresh_build(problem, churn):
    """Arbitrary weight churn ends bit-equal to a fresh state.

    The churned state passes through intermediate weights (including 0 =
    parked) and re-solves along the way; only the final weights may
    matter.
    """
    caps, links, fcaps, weights = problem
    churned = FairshareState(caps)
    cols = [churned.add_flow(p, c) for p, c in zip(links, fcaps)]
    churned.solve()
    for idx, w in churn:
        churned.set_weight(cols[idx % len(cols)], w)
        churned.solve()
    for col, w in zip(cols, weights):
        churned.set_weight(col, w)
    churned.solve()

    fresh = FairshareState(caps)
    fcols = [fresh.add_flow(p, c, weight=w)
             for p, c, w in zip(links, fcaps, weights)]
    fresh.solve()
    got = [churned.rate_of(c) for c in cols]
    want = [fresh.rate_of(c) for c in fcols]
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert churned.link_usage().tobytes() == fresh.link_usage().tobytes()


def test_set_weight_validation():
    state = FairshareState([1e9])
    col = state.add_flow([0], 1e8)
    with pytest.raises(ValueError):
        state.set_weight(col, -1)
    with pytest.raises(ValueError):
        state.set_weight(col, 1.5)
    state.remove_flow(col)
    with pytest.raises(ValueError):
        state.set_weight(col, 2)


def test_parked_column_is_skipped_but_rejoinable():
    state = FairshareState([1e9])
    a = state.add_flow([0], 1e12)
    b = state.add_flow([0], 1e12)
    state.solve()
    assert state.rate_of(a) == state.rate_of(b) == pytest.approx(5e8)
    state.set_weight(b, 0)
    state.solve()
    assert state.rate_of(a) == pytest.approx(1e9)
    assert state.class_stats() == (2, 1)  # column kept, zero members
    state.set_weight(b, 3)
    state.solve()
    assert state.rate_of(a) == state.rate_of(b) == pytest.approx(2.5e8)


# -- engine-level bit identity ------------------------------------------------


def mesh_network(n_hosts, n_sinks, host_rate, trunk_rate):
    """Hosts behind one hub, sinks behind one spine — shared-trunk mesh."""
    net = Network()
    net.add_node("hub")
    net.add_node("spine")
    net.add_link("hub", "spine", trunk_rate, delay=0.002, efficiency=1.0)
    for i in range(n_hosts):
        net.add_host(f"h{i}", "hub", host_rate, nic_delay=0.0005,
                     efficiency=1.0)
    for j in range(n_sinks):
        net.add_host(f"s{j}", "spine", host_rate * 2, nic_delay=0.0005,
                     efficiency=1.0)
    return net


schedule_st = st.lists(
    st.tuples(
        st.integers(0, 3),        # source host
        st.integers(0, 1),        # sink
        st.floats(1e4, 2e8),      # bytes
        st.floats(0.0, 1.5),      # start delay
        # Per-transfer cap: classes split by cap, and a member joining a
        # cap-bound class whose rate cannot move.
        st.sampled_from([None, MB(5), MB(20)]),
    ),
    min_size=1,
    max_size=14,
)


def run_schedule(schedule, aggregate):
    """Drive one engine; return every exact per-flow/tag observable."""
    sim = Simulation()
    net = mesh_network(4, 2, MB(100), MB(250))
    engine = FlowEngine(
        sim, net, default_tcp=TcpModel(window=float(GB(1))),
        aggregate=aggregate,
    )
    finishes = []

    def starter(sim, i, src, dst, nbytes, delay, cap):
        yield sim.timeout(delay)
        # Per-flow tag: its tag series IS its exact rate series. The
        # shared tag exercises multi-flow sum association.
        yield engine.transfer(f"h{src}", f"s{dst}", nbytes, cap=cap,
                              tags=(f"flow{i}", "all"))
        finishes.append((i, sim.now))

    for i, (src, dst, nbytes, delay, cap) in enumerate(schedule):
        sim.process(starter(sim, i, src, dst, nbytes, delay, cap))
    sim.run()
    series = {
        tag: (tuple(s.times), tuple(s.values))
        for tag, s in engine._tag_series.items()
    }
    return {
        "finishes": sorted(finishes),
        "series": series,
        "bytes_moved": engine.bytes_moved,
        "rate_changes": engine.rate_changes,
        "recomputes": engine.recomputes,
    }


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(schedule=schedule_st)
def test_engine_agg_vs_unagg_bit_identical(schedule):
    """aggregate=True is bitwise indistinguishable from aggregate=False.

    Exact (==, not approx) on: per-flow rate series, the shared-tag sum
    series, completion times, bytes moved, and the member-level
    rate-change counter, with and without per-transfer caps.
    """
    agg = run_schedule(schedule, aggregate=True)
    unagg = run_schedule(schedule, aggregate=False)
    assert agg == unagg


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(schedule=schedule_st)
def test_engine_agg_solver_is_smaller(schedule):
    """Aggregation never uses more solver columns than flows exist."""
    sim = Simulation()
    net = mesh_network(4, 2, MB(100), MB(250))
    engine = FlowEngine(sim, net, default_tcp=TcpModel(window=float(GB(1))))
    peak = {"cols": 0, "flows": 0}

    def starter(sim, src, dst, nbytes, delay):
        yield sim.timeout(delay)
        evt = engine.transfer(f"h{src}", f"s{dst}", nbytes)
        peak["cols"] = max(peak["cols"], engine.class_count())
        peak["flows"] = max(peak["flows"], engine.active_count)
        yield evt

    for src, dst, nbytes, delay, _cap in schedule:
        sim.process(starter(sim, src, dst, nbytes, delay))
    sim.run()
    assert peak["cols"] <= peak["flows"]
    # 4 hosts x 2 sinks: the class space is bounded by the route space.
    assert peak["cols"] <= 8
