"""The stage kernel against the hand-written walks it replaced.

``FunctionalDataplane.process`` executes the bound stage program, of a
whole graph and of each cross-server slice (run as a graph of its own,
``slice_subgraph``);
``tests/support/walk_reference.py`` holds the two loops that used to do
it, re-deriving everything from the graph per packet.  Over the
fuzzer's policies and adversarial packets -- unscaled and x4, healthy
and with an instance crashing or hanging mid-stream -- both must emit
the same bytes, count the same packets and drive every NF instance the
same number of times.
"""

import pytest

from repro.check.generator import CaseGenerator
from repro.core.orchestrator import Orchestrator
from repro.core.partition import partition_graph, slice_subgraph
from repro.dataplane.functional import FunctionalDataplane
from repro.faults import FaultInjector, FaultPlan
from repro.nfs.base import create_nf
from tests.support.walk_reference import ReferenceSliceWalk, ReferenceWalk

CASES = 40
GENERATOR = CaseGenerator(seed=23, packets_per_case=24)


def _graph(case):
    return Orchestrator(action_table=case.action_table()).compile(
        case.policy()).graph


def _fault_plan(case, index, kind):
    """One fault per case; victim and trigger packet rotate with the index
    (the fuzzer's own rotation, ``check.fuzz._fault_plan_for``)."""
    if kind is None:
        return None
    names = sorted(case.kinds())
    target = names[index % len(names)]
    at_packet = 1 + (index // len(names)) % 8
    return FaultPlan.parse(f"{kind}:{target}:pkt={at_packet}")


def _bytes(pkt):
    return None if pkt is None else bytes(pkt.buf)


def _nf_counters(nfs):
    return {label: (nf.rx_packets, nf.dropped_packets, nf.errors)
            for label, nf in nfs.items()}


@pytest.mark.parametrize("fault", [None, "crash", "hang"])
@pytest.mark.parametrize("scale", [1, 4])
def test_kernel_agrees_with_the_hand_written_walk(scale, fault):
    faulted_drops = 0
    for index in range(CASES):
        case = GENERATOR.generate(index)
        graph = _graph(case)

        def plane(cls):
            plan = _fault_plan(case, index, fault)
            return cls(graph, scale=scale if scale > 1 else None,
                       injector=FaultInjector(plan) if plan else None)

        kernel, reference = plane(FunctionalDataplane), plane(ReferenceWalk)
        for spec in case.packets:
            assert _bytes(kernel.process(spec.build())) == _bytes(
                reference.process(spec.build())), (case.case_id, spec.ident)
        for counter in ("processed", "emitted", "dropped", "drop_reasons",
                        "restarts"):
            assert getattr(kernel, counter) == getattr(reference, counter), (
                case.case_id, counter)
        assert kernel.processed == kernel.emitted + kernel.dropped
        assert _nf_counters(kernel.nfs) == _nf_counters(reference.nfs), (
            case.case_id)
        assert kernel.health.view() == reference.health.view()
        faulted_drops += kernel.drop_reasons.get("instance_down", 0)
    # The fault axis is not vacuous: instances really went down.
    assert (faulted_drops > 0) == (fault is not None)


def test_server_stage_agrees_with_the_hand_written_slice_walk():
    multi_slice_cases = 0
    for index in range(CASES):
        case = GENERATOR.generate(index)
        graph = _graph(case)
        # The tightest boxes the graph fits: as many slices as possible.
        slices = partition_graph(
            graph, cores_per_server=2 + max(len(stage) for stage in graph.stages))
        multi_slice_cases += len(slices) > 1

        def fresh(server_slice):
            return {entry.node.name: create_nf(entry.node.kind,
                                               name=entry.node.name)
                    for stage in server_slice.stages for entry in stage}

        kernels = [FunctionalDataplane(slice_subgraph(graph, s), fresh(s))
                   for s in slices]
        references = [
            ReferenceSliceWalk(graph, s, kernel.graph.merge_ops, fresh(s))
            for s, kernel in zip(slices, kernels)]
        for spec in case.packets:
            got, want = spec.build(), spec.build()
            for kernel, reference in zip(kernels, references):
                got, want = kernel.process(got), reference.process(want)
                assert _bytes(got) == _bytes(want), (case.case_id, spec.ident)
                if got is None:
                    break
        for kernel, reference in zip(kernels, references):
            assert (kernel.processed, kernel.dropped) == (
                reference.processed, reference.dropped)
            assert kernel.emitted == kernel.processed - kernel.dropped
            assert _nf_counters(kernel.nfs) == _nf_counters(reference.nfs)
    assert multi_slice_cases > CASES // 2
