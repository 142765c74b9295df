"""Tests for Network topology and routing."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import Link, Network
from repro.net.topology import RoutingError
from repro.util.units import Gbps
from tests.net._reference_routing import early_exit_path


def triangle() -> Network:
    net = Network()
    for name in ["a", "b", "c"]:
        net.add_node(name, kind="switch")
    net.add_link("a", "b", Gbps(10), delay=0.010)
    net.add_link("b", "c", Gbps(10), delay=0.010)
    net.add_link("a", "c", Gbps(1), delay=0.030)
    return net


class TestLink:
    def test_usable_rate(self):
        link = Link("a", "b", rate=1000.0, efficiency=0.9)
        assert link.usable_rate == pytest.approx(900.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Link("a", "b", rate=0)
        with pytest.raises(ValueError):
            Link("a", "b", rate=1, delay=-1)
        with pytest.raises(ValueError):
            Link("a", "b", rate=1, efficiency=0)
        with pytest.raises(ValueError):
            Link("a", "b", rate=1, efficiency=1.5)

    def test_nan_rejected_naming_the_link(self):
        nan = float("nan")
        with pytest.raises(ValueError, match="link a->b: rate must be positive"):
            Link("a", "b", rate=nan)
        with pytest.raises(ValueError, match="link up: delay"):
            Link("a", "b", rate=1, delay=nan, name="up")
        link = Link("a", "b", rate=1000.0)
        with pytest.raises(ValueError, match="link a->b: rate must be positive"):
            link.set_rate(nan)
        assert link.rate == 1000.0


class TestConstruction:
    def test_duplicate_node_rejected(self):
        net = Network()
        net.add_node("x")
        with pytest.raises(ValueError):
            net.add_node("x")

    def test_link_to_unknown_node_rejected(self):
        net = Network()
        net.add_node("x")
        with pytest.raises(RoutingError):
            net.add_link("x", "ghost", Gbps(1))

    def test_duplex_creates_two_links(self):
        net = Network()
        net.add_node("x")
        net.add_node("y")
        fwd, back = net.add_link("x", "y", Gbps(1))
        assert fwd.src == "x" and back.src == "y"
        assert len(net.links) == 2

    def test_simplex(self):
        net = Network()
        net.add_node("x")
        net.add_node("y")
        fwd, back = net.add_link("x", "y", Gbps(1), duplex=False)
        assert back is None
        net.path("x", "y")
        with pytest.raises(RoutingError):
            net.path("y", "x")

    def test_asymmetric_rates(self):
        net = Network()
        net.add_node("x")
        net.add_node("y")
        fwd, back = net.add_link("x", "y", Gbps(10), rate_back=Gbps(1))
        assert back.rate == Gbps(1)

    def test_add_host(self):
        net = Network()
        net.add_node("sw", kind="switch")
        node = net.add_host("h1", "sw", Gbps(1), site="sdsc")
        assert node.site == "sdsc"
        assert net.path("h1", "sw")

    def test_hosts_filter(self):
        net = Network()
        net.add_node("sw", kind="switch")
        net.add_host("h1", "sw", Gbps(1), site="sdsc")
        net.add_host("h2", "sw", Gbps(1), site="ncsa")
        assert [n.name for n in net.hosts("sdsc")] == ["h1"]
        assert len(net.hosts()) == 2

    def test_link_indices_match_capacities(self):
        net = triangle()
        caps = net.link_capacities()
        for link in net.links:
            assert caps[link.index] == link.usable_rate

    def test_capacities_are_one_read_only_array_until_a_rate_changes(self):
        net = triangle()
        caps = net.link_capacities()
        assert net.link_capacities() is caps
        assert not caps.flags.writeable
        net.links[0].set_rate(Gbps(5))
        assert net.link_capacities() is not caps


class TestRouting:
    def test_routes_by_delay(self):
        net = triangle()
        # a->c direct is 30ms; via b is 20ms → prefer via b.
        path = net.path("a", "c")
        assert [l.dst for l in path] == ["b", "c"]

    def test_loopback_empty(self):
        net = triangle()
        assert net.path("a", "a") == []

    def test_no_route_raises(self):
        net = Network()
        net.add_node("island1")
        net.add_node("island2")
        with pytest.raises(RoutingError):
            net.path("island1", "island2")

    def test_unknown_node_raises(self):
        net = triangle()
        with pytest.raises(RoutingError):
            net.path("a", "nowhere")

    def test_path_cache_invalidated_on_new_link(self):
        net = triangle()
        assert len(net.path("a", "c")) == 2
        net.add_link("a", "c", Gbps(10), delay=0.001)
        assert len(net.path("a", "c")) == 1
        # a's tree, built above, has no node d: a new link must retire it.
        net.add_node("d")
        net.add_link("c", "d", Gbps(10), delay=0.001)
        assert [l.dst for l in net.path("a", "d")] == ["c", "d"]
        assert [l.dst for l in net.path("a", "b")] == ["b"]

    def test_one_tree_per_source(self, monkeypatch):
        """A 32-client × 8-server switch routes every client↔server pair
        with 40 searches (one per source), not 512 (one per pair)."""
        net = Network()
        net.add_node("sw", kind="switch")
        clients = [f"c{i}" for i in range(32)]
        servers = [f"s{j}" for j in range(8)]
        for host in clients + servers:
            net.add_host(host, "sw", Gbps(1))
        built = []
        tree = Network._tree
        monkeypatch.setattr(Network, "_tree",
                            lambda self, src: built.append(src) or tree(self, src))
        for c in clients:
            for s in servers:
                assert [l.dst for l in net.path(c, s)] == ["sw", s]
                assert [l.dst for l in net.path(s, c)] == ["sw", c]
        assert sorted(built) == sorted(clients + servers)

    def test_one_way_delay_and_rtt(self):
        net = triangle()
        assert net.one_way_delay("a", "c") == pytest.approx(0.020)
        assert net.rtt("a", "c") == pytest.approx(0.040)

    def test_bottleneck_rate(self):
        net = Network()
        for n in "xyz":
            net.add_node(n)
        net.add_link("x", "y", Gbps(10), efficiency=1.0)
        net.add_link("y", "z", Gbps(1), efficiency=1.0)
        assert net.bottleneck_rate("x", "z") == pytest.approx(Gbps(1))
        assert net.bottleneck_rate("x", "x") == float("inf")


_NAMES = list("qbzahmxc")

#: Links as (src index, dst index, delay, duplex). Few distinct delays, so
#: equal-delay routes tie; zero delays and repeated pairs (parallel links)
#: are common, and simplex links or unlinked nodes leave pairs unreachable.
_links_st = st.lists(
    st.tuples(
        st.integers(0, len(_NAMES) - 1),
        st.integers(0, len(_NAMES) - 1),
        st.sampled_from([0.0, 0.0, 1e-3, 2e-3, 3e-3, 1.0, 2.0]),
        st.booleans(),
    ),
    max_size=16,
)


@settings(max_examples=150, deadline=None)
@given(nnodes=st.integers(1, len(_NAMES)), first=_links_st, second=_links_st)
# q→h ties at delay 1.0: via b, z (3 hops) is found first, via a (2 hops)
# settles later and must win on hops.
@example(nnodes=5, second=[], first=[
    (0, 1, 0.0, False), (1, 2, 0.0, False), (2, 4, 1.0, False),
    (0, 3, 1.0, False), (3, 4, 0.0, False)])
def test_tree_routes_equal_early_exit_search(nnodes, first, second):
    """Every ordered pair routes as the per-pair early-exit search does,
    ``RoutingError`` included, before and after more links are added."""
    net = Network()
    names = _NAMES[:nnodes]
    for name in names:
        net.add_node(name)
    for batch in (first, second):
        for a, b, delay, duplex in batch:
            if a < nnodes and b < nnodes and a != b:
                net.add_link(names[a], names[b], Gbps(1), delay=delay,
                             duplex=duplex)
        for src in names:
            for dst in names:
                try:
                    want = [l.index for l in early_exit_path(net, src, dst)]
                except RoutingError:
                    with pytest.raises(RoutingError):
                        net.path(src, dst)
                    continue
                assert [l.index for l in net.path(src, dst)] == want
