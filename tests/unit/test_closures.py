"""Unit tests for install-time graph flattening.

:class:`repro.core.closures.CompiledGraph` is the FT/MO walk flattened
per (graph, stage) at install time.  These tests pin the program layout
and the ChainingManager's compile-once-per-install cache.
"""

from repro.core import CompiledGraph, Orchestrator, Policy
from repro.core.tables import build_tables
from repro.dataplane import ChainingManager
from repro.eval.forced import forced_parallel, forced_sequential


def test_sequential_graph_compiles_to_flat_chain():
    graph = forced_sequential(["firewall", "monitor", "loadbalancer"])
    compiled = CompiledGraph(graph)
    assert compiled.sequential
    assert compiled.chain == tuple(graph.nf_names())
    assert len(compiled.program) == len(graph.stages)
    for copies, entries in compiled.program:
        assert copies == ()
        assert all(version == 1 for _, version in entries)


def test_parallel_graph_program_mirrors_copy_declarations():
    graph = forced_parallel(["firewall", "firewall", "firewall"],
                            with_copy=True)
    compiled = CompiledGraph(graph)
    assert not compiled.sequential
    assert compiled.chain == ()
    declared = sorted((spec.version, spec.header_only)
                      for spec in graph.copies)
    programmed = sorted(
        pair for copies, _ in compiled.program for pair in copies)
    assert programmed == declared
    assert compiled.merge_ops == tuple(graph.merge_ops)


def test_chaining_manager_compiles_once_per_install():
    manager = ChainingManager()
    graph = forced_sequential(["firewall", "monitor"])
    assert manager.closures_compiled == 0
    manager.install(build_tables(graph, mid=1))
    assert manager.closures_compiled == 1
    compiled = manager.compiled_for(1)
    assert isinstance(compiled, CompiledGraph)
    assert compiled.graph is manager.graph_for(1)
    # Repeated lookups reuse the same object -- no per-flow compilation.
    assert manager.compiled_for(1) is compiled
    other = Orchestrator().compile(
        Policy.from_chain(["gateway", "caching"])).graph
    manager.install(build_tables(other, mid=2))
    assert manager.closures_compiled == 2
    assert manager.compiled_for(2) is not compiled
