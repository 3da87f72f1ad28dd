"""Unit tests for cross-server graph partitioning (§7 scalability)."""

import pytest

from repro.core import Policy, PartitionError, compile_policy, partition_graph
from repro.core.graph import ORIGINAL_VERSION
from repro.core.partition import MAX_SERVERS
from repro.eval.forced import forced_sequential


def graph_for(chain):
    return compile_policy(Policy.from_chain(chain)).graph


def test_small_graph_fits_one_server():
    graph = graph_for(["vpn", "monitor", "firewall", "loadbalancer"])
    slices = partition_graph(graph, cores_per_server=8)
    assert len(slices) == 1
    assert set(slices[0].nf_names()) == set(graph.nf_names())
    # classifier + merger overhead per server.
    assert slices[0].total_cores == len(graph.nf_names()) + 2


def test_partition_splits_at_stage_boundaries():
    graph = graph_for(["vpn", "monitor", "firewall", "loadbalancer"])
    # 3 NF cores per server: stage widths are 1,2,1 -> [1,2] then [1].
    slices = partition_graph(graph, cores_per_server=5)
    assert len(slices) == 2
    assert slices[0].nf_cores == 3
    assert slices[1].nf_cores == 1


def test_partition_preserves_stage_order():
    graph = graph_for(["vpn", "monitor", "firewall", "loadbalancer"])
    slices = partition_graph(graph, cores_per_server=5)
    flattened = [e.node.name for s in slices for stage in s.stages for e in stage]
    assert flattened == [e.node.name for stage in graph.stages for e in stage]


def test_only_version1_crosses_server_boundaries():
    # Copy versions live within one stage, and stages never split, so
    # every boundary carries exactly one packet copy (the paper's
    # bandwidth constraint).
    graph = graph_for(["monitor", "nat", "vpn"])
    slices = partition_graph(graph, cores_per_server=4)
    for left, right in zip(slices, slices[1:]):
        last_stage = left.stages[-1]
        carried = {e.version for e in last_stage if graph.last_stage_of_version(e.version) > graph.stages.index(last_stage)}
        assert carried <= {ORIGINAL_VERSION}


def test_stage_too_wide_rejected():
    graph = graph_for(["gateway", "caching", "monitor"])  # one 3-wide stage
    with pytest.raises(PartitionError):
        partition_graph(graph, cores_per_server=4)  # only 2 NF cores


def test_too_few_cores_rejected():
    graph = graph_for(["firewall", "monitor"])
    with pytest.raises(PartitionError):
        partition_graph(graph, cores_per_server=2)


def test_max_servers_enforced():
    # One NF core per server: a chain one longer than the bound needs
    # one server too many; a chain at the bound fits.
    with pytest.raises(PartitionError):
        partition_graph(forced_sequential(["firewall"] * (MAX_SERVERS + 1)),
                        cores_per_server=3)
    slices = partition_graph(forced_sequential(["firewall"] * MAX_SERVERS),
                             cores_per_server=3)
    assert len(slices) == MAX_SERVERS
