"""Differential: every memoised ``ServiceGraph`` / ``Stage`` fact equals
its from-scratch scan over the stage lists.

The graph computes versions, last stage per version, ``num_versions``,
``is_sequential``, ``total_count`` and the per-version entry lists once
in ``__init__`` (graphs are not mutated after construction); the scan
definitions they replaced live on here, checked over the differential
fuzzer's policy generator and each graph's sequential linearization.
"""

import pytest

from repro.check.generator import CaseGenerator
from repro.core import Orchestrator
from repro.faults.recovery import linearize


def _scan_versions(graph):
    return {entry.version for stage in graph.stages for entry in stage.entries}


def _scan_entries_on(stage, version):
    return [entry for entry in stage.entries if entry.version == version]


def _scan_last_stage(graph, version):
    last = -1
    for index, stage in enumerate(graph.stages):
        if _scan_entries_on(stage, version):
            last = index
    if last < 0:
        raise ValueError(f"version {version} never used")
    return last


def _scan_notifications(graph):
    found = []
    for version in sorted(_scan_versions(graph)):
        last = _scan_last_stage(graph, version)
        found.extend(_scan_entries_on(graph.stages[last], version))
    return found


def _check(graph):
    versions = _scan_versions(graph)
    unused = max(versions) + 1
    assert graph.versions() == versions
    assert graph.num_versions == len(versions)
    sequential = (all(len(stage.entries) == 1 for stage in graph.stages)
                  and len(versions) == 1)
    assert graph.is_sequential is sequential
    assert graph.has_parallelism is (not sequential)
    assert graph.needs_merger is (not sequential)
    assert graph.merger_notifications() == _scan_notifications(graph)
    assert graph.total_count == len(_scan_notifications(graph))
    for stage in graph.stages:
        assert stage.versions() == {e.version for e in stage.entries}
        for version in sorted(versions) + [unused]:
            assert stage.entries_on(version) == _scan_entries_on(stage, version)
    for version in versions:
        assert graph.last_stage_of_version(version) == _scan_last_stage(
            graph, version)
    with pytest.raises(ValueError, match=f"version {unused} never used"):
        graph.last_stage_of_version(unused)
    # Callers own what versions() hands back.
    graph.versions().add(unused)
    graph.stages[0].versions().add(unused)
    assert graph.versions() == versions


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_memoised_graph_facts_equal_their_scan_definitions(seed):
    generator = CaseGenerator(seed=seed, packets_per_case=1)
    parallel = 0
    for index in range(60):
        case = generator.generate(index)
        graph = Orchestrator(action_table=case.action_table()).compile(
            case.policy()).graph
        _check(graph)
        _check(linearize(graph))
        parallel += graph.has_parallelism
    assert parallel > 10  # the generator does produce parallel graphs
