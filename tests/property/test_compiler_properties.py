"""Property-based tests on compiler invariants and the correctness
principle over randomly generated chains."""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.check.generator import NF_POOL, CaseGenerator
from repro.core import NFSpec, Orchestrator, Policy, identify_parallelism
from repro.core.action_table import default_action_table
from repro.core.graph import ORIGINAL_VERSION, MergeOpKind
from repro.dataplane import FunctionalDataplane, SequentialReference
from repro.nfs import create_nf
from repro.traffic import FlowGenerator, PacketSizeDistribution

#: NF kinds safe for arbitrary composition (every chain over these is
#: meaningful; vpn-decrypt is excluded since it drops un-encrypted
#: traffic by design).
KINDS = [
    "firewall", "monitor", "loadbalancer", "gateway", "caching",
    "nat", "vpn", "nids", "proxy", "compression", "shaper", "ids",
]

chains = st.lists(st.sampled_from(KINDS), min_size=1, max_size=5)


def make_policy(kinds):
    specs = [NFSpec(f"{kind}-{i}", kind) for i, kind in enumerate(kinds)]
    return Policy.from_chain(specs, name="prop"), specs


@settings(max_examples=60, deadline=None)
@given(kinds=chains)
def test_compiled_graph_contains_every_nf_exactly_once(kinds):
    policy, specs = make_policy(kinds)
    graph = Orchestrator().compile(policy).graph
    assert sorted(graph.nf_names()) == sorted(s.name for s in specs)


@settings(max_examples=60, deadline=None)
@given(kinds=chains)
def test_compiled_graph_preserves_hard_order(kinds):
    # Any chain pair deemed NOT parallelizable must end up in
    # strictly increasing stages.
    policy, specs = make_policy(kinds)
    graph = Orchestrator().compile(policy).graph
    table = default_action_table()
    position = {}
    for index, stage in enumerate(graph.stages):
        for entry in stage:
            position[entry.node.name] = index
    for i, first in enumerate(specs):
        for second in specs[i + 1:]:
            verdict = identify_parallelism(
                table.fetch(first.kind), table.fetch(second.kind)
            )
            if not verdict.parallelizable:
                assert position[first.name] < position[second.name]


@settings(max_examples=60, deadline=None)
@given(kinds=chains)
def test_equivalent_length_never_exceeds_chain_length(kinds):
    policy, _ = make_policy(kinds)
    graph = Orchestrator().compile(policy).graph
    assert 1 <= graph.equivalent_length <= len(kinds)
    assert 1 <= graph.num_versions <= len(kinds)


@settings(max_examples=25, deadline=None)
@given(kinds=chains, seed=st.integers(0, 1000))
def test_result_correctness_principle_random_chains(kinds, seed):
    """§4.1 as a property: parallel output == sequential output, for any
    chain over the NF corpus and any traffic."""
    policy, specs = make_policy(kinds)
    graph = Orchestrator().compile(policy).graph

    parallel = FunctionalDataplane(graph)
    sequential = SequentialReference(
        [create_nf(s.kind, name=f"seq-{s.name}") for s in specs]
    )
    sizes = PacketSizeDistribution([(96, 0.5), (256, 0.5)])
    gen_a = FlowGenerator(num_flows=4, sizes=sizes, seed=seed)
    gen_b = FlowGenerator(num_flows=4, sizes=sizes, seed=seed)

    for _ in range(15):
        out_a = parallel.process(gen_a.next_packet())
        out_b = sequential.process(gen_b.next_packet())
        assert (out_a is None) == (out_b is None)
        if out_a is not None:
            assert bytes(out_a.buf) == bytes(out_b.buf)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 40), index=st.integers(0, 400))
@example(seed=3, index=151)   # proxy (stage 0) vs compression[v3] (stage 1)
@example(seed=12, index=160)  # proxy (stage 0) vs loadbalancer[v3] (stage 1)
def test_merge_takes_each_field_from_its_last_stage_writer(seed, index):
    """A stage-k copy is cut from version 1 after every earlier stage ran,
    so the merged value of a field written in several stages is the last
    stage's; priority only ranks writers inside one stage.  Policies come
    from the fuzzer's generator: partial orders and Priority rules, where
    a node's priority and its stage can disagree."""
    case = CaseGenerator(seed=seed).generate(index)
    graph = Orchestrator(action_table=case.action_table()).compile(
        case.policy()).graph
    last_writers = {}  # field -> (stage index, [(priority, version)])
    for stage_index, stage in enumerate(graph.stages):
        for entry in stage:
            for field in entry.node.profile.writes:
                if last_writers.get(field, (-1,))[0] != stage_index:
                    last_writers[field] = (stage_index, [])
                last_writers[field][1].append(
                    (entry.node.priority, entry.version))
    sources = {op.field: op.src_version for op in graph.merge_ops
               if op.kind is MergeOpKind.MODIFY}
    assert set(sources) <= set(last_writers)
    for field, (_, writers) in last_writers.items():
        _, winner = max(writers)
        # Version 1 needs no modify: its write is already in the base.
        assert sources.get(field, ORIGINAL_VERSION) == winner, (
            field, graph.describe())


def test_no_graph_merges_an_encapsulating_unit():
    """Every ordered pair of the fuzzer's NF pool, under Order and under
    Priority either way: no compiled graph declares an add or a remove
    of an encapsulating unit, so the merger needs no VXLAN mover."""
    orchestrator = Orchestrator()
    units = set()
    for a, b in itertools.product(NF_POOL, repeat=2):
        first, second = f"{a}-0", f"{b}-1"
        for rule in ("order", "high", "low"):
            policy = Policy(name="pair")
            policy.declare(NFSpec(first, a)).declare(NFSpec(second, b))
            if rule == "order":
                policy.order(first, second)
            else:
                policy.priority(*((first, second) if rule == "high"
                                  else (second, first)))
            graph = orchestrator.compile(policy).graph
            for op in graph.merge_ops:
                if op.kind is not MergeOpKind.MODIFY:
                    assert not op.field.is_encapsulating, (policy, op)
                    units.add(op.field)
    # Not vacuous: the offset-transparent units are merged.
    assert {unit.value for unit in units} == {"ah", "vlan"}
