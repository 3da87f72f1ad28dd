"""Unit tests for the service-graph data model."""

import pytest

from repro.core import (
    CopySpec,
    MergeOp,
    MergeOpKind,
    NFNode,
    ORIGINAL_VERSION,
    ServiceGraph,
    Stage,
    StageEntry,
    default_action_table,
)
from repro.net import Field


def node(name, kind=None, priority=0):
    table = default_action_table()
    kind = kind or name
    return NFNode(name, kind, table.fetch(kind), priority)


def test_sequential_constructor():
    graph = ServiceGraph.sequential([node("firewall"), node("monitor")])
    assert graph.is_sequential
    assert not graph.has_parallelism
    assert graph.equivalent_length == 2
    assert graph.num_versions == 1
    assert not graph.needs_merger
    assert graph.total_count == 1


def test_parallel_stage_properties():
    stage = Stage([
        StageEntry(node("firewall"), 1),
        StageEntry(node("monitor"), 1),
        StageEntry(node("loadbalancer"), 2),
    ])
    graph = ServiceGraph([stage], copies=[CopySpec(0, 2)])
    assert graph.has_parallelism
    assert graph.num_versions == 2
    assert graph.equivalent_length == 1
    assert graph.needs_merger
    # All three entries are version-final -> 3 merger notifications.
    assert graph.total_count == 3


def test_merger_notifications_respect_version_last_stage():
    stages = [
        Stage([StageEntry(node("monitor"), 1), StageEntry(node("firewall"), 1)]),
        Stage([StageEntry(node("loadbalancer"), 1)]),
    ]
    graph = ServiceGraph(stages)
    # Only the LB is on version 1's last stage.
    names = [e.node.name for e in graph.merger_notifications()]
    assert names == ["loadbalancer"]
    assert graph.total_count == 1


def test_stage_requires_unique_nfs():
    with pytest.raises(ValueError):
        Stage([StageEntry(node("firewall"), 1), StageEntry(node("firewall"), 1)])
    with pytest.raises(ValueError):
        Stage([])


def test_graph_rejects_duplicate_nf_across_stages():
    a = node("firewall")
    with pytest.raises(ValueError):
        ServiceGraph([
            Stage([StageEntry(a, 1)]),
            Stage([StageEntry(a, 1)]),
        ])


def test_graph_rejects_version_without_copyspec():
    with pytest.raises(ValueError):
        ServiceGraph([Stage([StageEntry(node("firewall"), 2)])])


def test_copyspec_cannot_target_version_one():
    with pytest.raises(ValueError):
        ServiceGraph(
            [Stage([StageEntry(node("firewall"), 1)])],
            copies=[CopySpec(0, ORIGINAL_VERSION)],
        )


def test_version_stage_lookups():
    stages = [
        Stage([StageEntry(node("monitor"), 1), StageEntry(node("loadbalancer"), 2)]),
        Stage([StageEntry(node("firewall"), 1)]),
    ]
    graph = ServiceGraph(stages, copies=[CopySpec(0, 2)])
    assert graph.last_stage_of_version(1) == 1
    assert graph.last_stage_of_version(2) == 0
    with pytest.raises(ValueError):
        graph.last_stage_of_version(9)


def test_stage_of_lookup():
    graph = ServiceGraph.sequential([node("firewall"), node("monitor")])
    index, entry = graph.stage_of("monitor")
    assert index == 1 and entry.node.kind == "monitor"
    with pytest.raises(KeyError):
        graph.stage_of("ghost")


def test_describe_renders_structure():
    stages = [
        Stage([StageEntry(node("vpn"), 1)]),
        Stage([StageEntry(node("monitor"), 1), StageEntry(node("firewall"), 1)]),
    ]
    text = ServiceGraph(stages).describe()
    assert text == "vpn -> (monitor | firewall)"


def test_describe_marks_copy_versions():
    stage = Stage([StageEntry(node("monitor"), 1), StageEntry(node("loadbalancer"), 2)])
    text = ServiceGraph([stage], copies=[CopySpec(0, 2)]).describe()
    assert "loadbalancer[v2]" in text


def test_merge_op_validation():
    with pytest.raises(ValueError):
        MergeOp(MergeOpKind.MODIFY, Field.SIP)  # missing source version
    op = MergeOp(MergeOpKind.MODIFY, Field.SIP, 2)
    assert "modify" in repr(op)
    remove = MergeOp(MergeOpKind.REMOVE, Field.AH_HEADER)
    assert "remove" in repr(remove)
    assert op == MergeOp(MergeOpKind.MODIFY, Field.SIP, 2)
    assert op != remove
