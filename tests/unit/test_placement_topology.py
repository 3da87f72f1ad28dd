"""Unit tests: topology model, partition_at, and per-link latency."""

import pytest

from repro.core import Orchestrator, Policy
from repro.core.partition import PartitionError, partition_at
from repro.eval.model import nfp_latency_floor
from repro.multiserver.latency import estimate_placed_latency, link_cost_us
from repro.placement import Link, Server, Topology, TopologyError
from repro.sim.params import DEFAULT_PARAMS


def chain_graph(*kinds):
    return Orchestrator().compile(Policy.from_chain(list(kinds))).graph


# ---------------------------------------------------------------- topology
class TestTopology:
    def test_builders_and_spec(self):
        line = Topology.from_spec("line:3x6@25")
        assert line.num_servers == 3
        assert len(line.links) == 2
        assert line.server("s1").cores == 6
        assert line.link("s0", "s1").gbps == 25.0

        mesh = Topology.from_spec("mesh:4x8")
        assert len(mesh.links) == 6

        star = Topology.from_spec("star:5x8@40")
        assert len(star.links) == 4
        assert star.neighbors("s0") == ["s1", "s2", "s3", "s4"]
        assert star.neighbors("s3") == ["s0"]

    def test_bad_specs(self):
        for spec in ("nope:3x4", "line:3", "line:ax4", "line"):
            with pytest.raises(TopologyError):
                Topology.from_spec(spec)

    def test_duplicate_and_unknown_members(self):
        topo = Topology()
        topo.add_server(Server("a", 4))
        with pytest.raises(TopologyError):
            topo.add_server(Server("a", 4))
        with pytest.raises(TopologyError):
            topo.add_link(Link("a", "missing"))
        topo.add_server(Server("b", 4))
        topo.add_link(Link("a", "b"))
        with pytest.raises(TopologyError):
            topo.add_link(Link("b", "a"))
        with pytest.raises(TopologyError):
            topo.server("zz")
        with pytest.raises(TopologyError):
            topo.link("a", "zz")

    def test_invalid_servers_and_links(self):
        with pytest.raises(TopologyError):
            Server("x", 0)
        with pytest.raises(TopologyError):
            Link("x", "x")
        with pytest.raises(TopologyError):
            Link("x", "y", gbps=0)

    def test_paths_line(self):
        topo = Topology.line(3, 4)
        assert sorted(topo.paths(1)) == [("s0",), ("s1",), ("s2",)]
        two = sorted(topo.paths(2))
        assert ("s0", "s1") in two and ("s1", "s0") in two
        assert ("s0", "s2") not in two  # not adjacent on a line
        assert sorted(topo.paths(3)) == [("s0", "s1", "s2"),
                                         ("s2", "s1", "s0")]

    def test_paths_are_simple(self):
        topo = Topology.full_mesh(3, 4)
        for path in topo.paths(3):
            assert len(set(path)) == 3

    def test_path_links_validates_adjacency(self):
        topo = Topology.line(3, 4)
        links = topo.path_links(("s0", "s1", "s2"))
        assert [l.key for l in links] == [frozenset(("s0", "s1")),
                                          frozenset(("s1", "s2"))]
        with pytest.raises(TopologyError):
            topo.path_links(("s0", "s2"))

    def test_link_capacity_scales_with_gbps(self):
        slow = Link("a", "b", gbps=10.0)
        fast = Link("a", "b", gbps=40.0)
        assert fast.capacity_mpps(64) == pytest.approx(
            4 * slow.capacity_mpps(64))


# ------------------------------------------------------------ partition_at
class TestPartitionAt:
    def test_explicit_cuts(self):
        graph = chain_graph("vpn", "monitor", "firewall", "loadbalancer")
        slices = partition_at(graph, [1])
        assert len(slices) == 2
        assert slices[0].stages == graph.stages[:1]
        assert slices[1].stages == graph.stages[1:]
        # Slices reuse the graph's own Stage objects (identity matters
        # for slice_subgraph's index lookups).
        assert slices[0].stages[0] is graph.stages[0]

    def test_no_cuts_is_one_slice(self):
        graph = chain_graph("ids", "monitor")
        slices = partition_at(graph, [])
        assert len(slices) == 1
        assert slices[0].stages == graph.stages

    def test_invalid_cuts_rejected(self):
        graph = chain_graph("vpn", "monitor", "firewall", "loadbalancer")
        for cuts in ([0], [len(graph.stages)], [-1]):
            with pytest.raises(PartitionError):
                partition_at(graph, cuts)

    def test_duplicate_cuts_collapse(self):
        graph = chain_graph("vpn", "monitor", "firewall", "loadbalancer")
        assert len(partition_at(graph, [1, 1])) == 2


# ------------------------------------------------------- per-link latency
class TestPerLinkLatency:
    def test_link_cost_heterogeneous(self):
        slow = link_cost_us(DEFAULT_PARAMS, 64, gbps=10.0)
        fast = link_cost_us(DEFAULT_PARAMS, 64, gbps=40.0)
        assert fast < slow
        farther = link_cost_us(DEFAULT_PARAMS, 64, gbps=10.0,
                               propagation_us=5.0)
        assert farther == pytest.approx(slow + 5.0)
        # Default rate matches the params NIC.
        assert link_cost_us(DEFAULT_PARAMS, 64) == pytest.approx(
            link_cost_us(DEFAULT_PARAMS, 64, gbps=DEFAULT_PARAMS.nic_gbps))

    def test_uniform_special_case(self):
        # The homogeneous cluster of §7: every hop at one cost, and the
        # placement pays exactly its hops over the single-box floor.
        graph = chain_graph("vpn", "monitor", "firewall", "loadbalancer")
        slices = partition_at(graph, [1, 2])
        links = [Link("a", "b", gbps=10.0), Link("b", "c", gbps=10.0)]
        total = estimate_placed_latency(graph, slices, links, DEFAULT_PARAMS)
        assert total - nfp_latency_floor(graph, DEFAULT_PARAMS) == pytest.approx(
            2 * link_cost_us(DEFAULT_PARAMS, 64, gbps=10.0))

    def test_heterogeneous_links_sum_and_guard(self):
        graph = chain_graph("vpn", "monitor", "firewall", "loadbalancer")
        slices = partition_at(graph, [1, 2])
        mixed = [Link("a", "b", gbps=10.0),
                 Link("b", "c", gbps=40.0, propagation_us=2.0)]
        total = estimate_placed_latency(graph, slices, mixed, DEFAULT_PARAMS)
        hops = sum(link_cost_us(DEFAULT_PARAMS, 64, gbps=link.gbps,
                                propagation_us=link.propagation_us)
                   for link in mixed)
        assert total - nfp_latency_floor(graph, DEFAULT_PARAMS) == pytest.approx(
            hops)
        with pytest.raises(ValueError):
            estimate_placed_latency(graph, slices, mixed[:1], DEFAULT_PARAMS)

    def test_wrong_link_count_rejected(self):
        graph = chain_graph("vpn", "monitor", "firewall", "loadbalancer")
        slices = partition_at(graph, [1])
        with pytest.raises(ValueError):
            estimate_placed_latency(graph, slices, [], DEFAULT_PARAMS)
        with pytest.raises(ValueError):
            estimate_placed_latency(graph, slices, [Link("a", "b")] * 2,
                                    DEFAULT_PARAMS)

    def test_estimate_placed_latency_prices_each_hop(self):
        graph = chain_graph("vpn", "monitor", "firewall", "loadbalancer")
        slices = partition_at(graph, [1, 2])
        uniform = [Link("a", "b", gbps=10.0), Link("b", "c", gbps=10.0)]
        mixed = [Link("a", "b", gbps=10.0),
                 Link("b", "c", gbps=40.0, propagation_us=2.0)]
        lat_uniform = estimate_placed_latency(
            graph, slices, uniform, DEFAULT_PARAMS)
        lat_mixed = estimate_placed_latency(
            graph, slices, mixed, DEFAULT_PARAMS)
        expected_delta = (
            link_cost_us(DEFAULT_PARAMS, 64, gbps=40.0, propagation_us=2.0)
            - link_cost_us(DEFAULT_PARAMS, 64, gbps=10.0)
        )
        assert lat_mixed - lat_uniform == pytest.approx(expected_delta)
