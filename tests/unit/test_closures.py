"""Unit tests for the install-time stage program.

:class:`repro.core.closures.CompiledGraph` states, once per install,
what the per-packet paths used to re-derive from the graph object model:
the copies due at each stage's entry and each entry's instance labels,
and -- for the DES server, which advances one NF completion at a time --
the step table.  These tests pin what the program guarantees to whoever
executes it (``StageKernel``, the DES server) and the ChainingManager's
compile-once-per-install cache.
"""

from repro.check.generator import CaseGenerator
from repro.core import CompiledGraph, Orchestrator, Policy
from repro.core.tables import build_tables
from repro.dataplane import ChainingManager, FunctionalDataplane, NFPServer
from repro.dataplane.functional import instantiate_nfs
from repro.eval.forced import forced_parallel, forced_sequential
from repro.faults import FaultInjector, FaultPlan
from repro.net.packet import build_packet
from repro.nfs.base import create_nf
from repro.sim import DEFAULT_PARAMS, Environment
from repro.traffic.generator import FlowGenerator, TrafficSource


def west_east():
    return Orchestrator().compile(
        Policy.from_chain(["ids", "monitor", "loadbalancer"])).graph


def test_sequential_graph_compiles_to_flat_chain():
    graph = forced_sequential(["firewall", "monitor", "loadbalancer"])
    compiled = CompiledGraph(graph)
    assert len(compiled.program) == len(graph.stages)
    chain = []
    for copies, entries in compiled.program:
        assert copies == ()
        ((version, count, labels, entry),) = entries
        assert version == 1
        # Unbound: every NF is its own single instance.
        assert (count, labels) == (1, (entry.node.name,))
        chain.append(entry.node.name)
    assert chain == graph.nf_names()


def test_parallel_graph_program_mirrors_copy_declarations():
    graph = forced_parallel(["firewall", "firewall", "firewall"],
                            with_copy=True)
    compiled = CompiledGraph(graph)
    assert graph.copies
    # Partitioned by stage, declaration order kept, nothing lost or added.
    for index, (copies, _) in enumerate(compiled.program):
        assert list(copies) == [
            spec for spec in graph.copies if spec.stage_index == index]
    assert sum(len(copies) for copies, _ in compiled.program) == len(graph.copies)
    # Entries are the stages' own, in declaration order.
    for (_, entries), stage in zip(compiled.program, graph.stages):
        assert [entry for _, _, _, entry in entries] == list(stage)
        assert [version for version, _, _, _ in entries] == [
            entry.version for entry in stage]


def test_bound_label_tuples_are_the_keys_instantiate_nfs_makes():
    graph = west_east()
    for scale in ({}, {"ids": 4}, {name: 3 for name in graph.nf_names()}):
        compiled = CompiledGraph(graph, scale)
        labels = [label for _, entries in compiled.program
                  for _, _, instance_labels, _ in entries
                  for label in instance_labels]
        assert labels == list(instantiate_nfs(graph, scale=scale))
    plane = FunctionalDataplane(graph, scale=4)
    assert [label for _, entries in plane._stages for _, _, labels, _ in entries
            for label in labels] == list(plane.nfs)


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


def test_reinstall_after_rescale_rebinds_and_keeps_no_stale_labels():
    """Membership is never frozen into a program that outlives it.

    The DES keeps instance membership in its runtime groups (labels
    there carry generation suffixes), so the program the server installs
    is unbound; a re-install after a live rescale compiles afresh, and
    the copies the server reads are the new program's.
    """
    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS, flow_cache_size=64)
    deployed = Orchestrator().deploy(Policy.from_chain(["nat", "vpn"]))
    server.deploy(deployed)
    TrafficSource(env, server.inject, 0.5, 64, seed=3,
                  flows=FlowGenerator(num_flows=8, seed=3))
    env.run()
    server.request_rescale("vpn", 3)
    env.run()
    assert server.runtimes["vpn"].count == 3
    assert server.chaining.closures_compiled == 1
    before = server.chaining.compiled_for(deployed.mid)
    server.chaining.install(deployed.tables)
    after = server.chaining.compiled_for(deployed.mid)
    assert server.chaining.closures_compiled == 2
    assert after is not before
    assert all(labels == (entry.node.name,) for _, entries in after.program
               for _, _, labels, entry in entries)
    # The record is complete whoever installed it: plan from the
    # manager, merge delay from the server's install listener.
    assert after.merge_plan is not None
    assert after.merge_delay_us == before.merge_delay_us > 0
    # The functional plane's scale is fixed for its life: a different
    # membership is a different plane, bound to its own labels.
    graph = west_east()
    two = FunctionalDataplane(graph, scale=2)
    three = FunctionalDataplane(graph, scale=3)
    assert set(two.nfs) < set(three.nfs)
    assert "ids#2" not in {label for _, entries in two._stages
                           for _, _, labels, _ in entries for label in labels}


def test_step_table_states_what_the_graph_would_answer():
    """Over the fuzzer's policies: every fact a DES completion reads of
    the record is the one the graph object model would have derived."""
    generator = CaseGenerator(seed=31, packets_per_case=1)
    parallel = with_copies = 0
    for index in range(200):
        case = generator.generate(index)
        graph = Orchestrator(action_table=case.action_table()).compile(
            case.policy()).graph
        compiled = CompiledGraph(graph)
        assert set(compiled.steps) == {
            (stage, version) for stage, entries in enumerate(graph.stages)
            for version in entries.versions()}
        for (stage, version), step in compiled.steps.items():
            last, fan_in, copies, targets = step
            entries = graph.stages[stage].entries_on(version)
            assert last == (stage == graph.last_stage_of_version(version))
            assert fan_in == len(entries)
            for entry in entries:
                assert compiled.by_nf[entry.node.name] == ((stage, version), step)
            if last:
                assert copies == () and targets == ()
                continue
            following = graph.stages[stage + 1]
            assert targets == tuple(
                e.node.name for e in following.entries_on(version))
            due = compiled.program[stage + 1][0] if version == 1 else ()
            assert tuple(spec for spec, _ in copies) == due
            for spec, names in copies:
                assert names == tuple(
                    e.node.name for e in following.entries_on(spec.version))
            with_copies += bool(copies)
        assert set(compiled.by_nf) == set(graph.nf_names())
        stage0 = graph.stages[0]
        assert compiled.stage0 == tuple(
            (version, entry.node.name) for version in sorted(stage0.versions())
            for entry in stage0.entries_on(version))
        assert compiled.total_count == graph.total_count
        assert compiled.needs_merger == graph.needs_merger == graph.has_parallelism
        parallel += graph.has_parallelism
    # The generator exercises what the table is for.
    assert parallel > 50 and with_copies > 5


def test_replaced_instance_is_seen_by_the_next_packet():
    graph = west_east()
    plane = FunctionalDataplane(graph)
    plane.process(build_packet(size=64))
    assert plane.nfs["monitor"].rx_packets == 1
    # What ``_instance_down``'s restart does: a fresh object under the
    # same label.  The program holds labels, so nothing is rebound.
    fresh = plane.nfs["monitor"] = create_nf("monitor", name="monitor")
    plane.process(build_packet(size=64))
    assert fresh.rx_packets == 1

    # And through the fault gate itself: the last healthy instance
    # crashes, restarts in place, and serves the following packet.
    injector = FaultInjector(FaultPlan.parse("crash:monitor:pkt=2"))
    gated = FunctionalDataplane(graph, injector=injector)
    original = gated.nfs["monitor"]
    assert gated.process(build_packet(size=64)) is not None
    assert gated.process(build_packet(size=64)) is None
    assert gated.restarts == 1 and gated.drop_reasons == {"instance_down": 1}
    assert gated.nfs["monitor"] is not original
    assert gated.process(build_packet(size=64)) is not None
    assert gated.nfs["monitor"].rx_packets == 1
