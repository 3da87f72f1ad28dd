"""Unit tests for the §4.4 micrographs (Fig. 2) as the compiler lays them out.

The compiler keeps no separate micrograph objects: a micrograph is read
off its pair verdicts (``CompilationResult.decisions``) and the stages
of the compiled graph.
"""

from repro.core import NFSpec, Parallelism, Policy, compile_policy


def fig2_like_policy():
    """The Fig. 2 input shape: Position + Order tree + Priority trio +
    a free NF, over concrete Table 2 kinds."""
    policy = Policy(name="fig2")
    for spec in [
        NFSpec("nf1", "vpn"),          # pinned first
        NFSpec("nf2", "nat"),          # order: nf2 before nf3, nf4
        NFSpec("nf3", "firewall"),
        NFSpec("nf4", "monitor"),
        NFSpec("nf5", "ips"),          # priority: nf5 > nf6 > nf7
        NFSpec("nf6", "firewall"),
        NFSpec("nf7", "monitor"),
        NFSpec("nf8", "gateway"),      # free
    ]:
        policy.declare(spec)
    policy.position("nf1", "first")
    policy.order("nf2", "nf3")
    policy.order("nf2", "nf4")
    policy.priority("nf5", "nf6")
    policy.priority("nf6", "nf7")
    policy._touch("nf8")
    return policy


def stages_of(graph):
    return {e.node.name: i for i, s in enumerate(graph.stages) for e in s}


def test_order_pair_priority_assignment():
    # "the NF with the back order is assigned a higher priority" (§3).
    graph = compile_policy(fig2_like_policy()).graph
    node = {e.node.name: e.node for s in graph.stages for e in s}
    for later in ("nf3", "nf4"):
        assert node[later].priority > node["nf2"].priority


def test_micrograph_classification_matches_fig2():
    result = compile_policy(fig2_like_policy())
    graph = result.graph
    stage_of = stages_of(graph)
    node = {e.node.name: e.node for s in graph.stages for e in s}
    # The pinned-first single leads the graph alone.
    assert [e.node.name for e in graph.stages[0]] == ["nf1"]
    # The tree: the NAT writes what the firewall and the monitor read.
    for reader in ("nf3", "nf4"):
        verdict = result.decisions[("nf2", reader)]
        assert verdict.classification is Parallelism.NOT_PARALLELIZABLE
    # The Priority trio is declared parallel: Algorithm 1 never judges
    # a ruled pair, finds the unruled nf5/nf7 pair parallelizable, and
    # the merge priorities follow the rules.
    for high, low in (("nf5", "nf6"), ("nf6", "nf7")):
        assert (high, low) not in result.decisions
        assert (low, high) not in result.decisions
    assert result.decisions[("nf5", "nf7")].parallelizable
    assert node["nf5"].priority > node["nf6"].priority > node["nf7"].priority
    # Only the NAT splits the trio: it cannot run beside the IPS or the
    # firewall, and those unordered pairs are sequenced with a warning.
    assert stage_of["nf5"] == stage_of["nf6"] > stage_of["nf2"]
    assert stage_of["nf7"] == stage_of["nf2"]
    assert [w.split("'")[1:4:2] for w in result.warnings] == [
        ["nf2", "nf5"], ["nf2", "nf6"]]


def test_tree_micrograph_records_hard_edges():
    result = compile_policy(fig2_like_policy())
    hard = {pair for pair, verdict in result.decisions.items()
            if pair[0] == "nf2" and pair[1] in ("nf3", "nf4")
            and verdict.classification is Parallelism.NOT_PARALLELIZABLE}
    assert hard == {("nf2", "nf3"), ("nf2", "nf4")}


def test_micrographs_partition_the_nf_set():
    policy = fig2_like_policy()
    seen = compile_policy(policy).graph.nf_names()
    assert sorted(seen) == sorted(policy.nf_names())
    assert len(seen) == len(set(seen))


def test_decomposition_consistent_with_final_graph():
    """Tree hard edges appear as stage orderings in the compiled graph."""
    graph = compile_policy(fig2_like_policy()).graph
    stage_of = stages_of(graph)
    for reader in ("nf3", "nf4"):
        assert stage_of["nf2"] < stage_of[reader]
    # Pinned-first single leads the graph.
    assert graph.stages[0].entries[0].node.name == "nf1"


def test_plain_parallelism_copy_accounting():
    # monitor -> loadbalancer: one stage, and the LB needs one copy.
    graph = compile_policy(Policy.from_chain(["monitor", "loadbalancer"])).graph
    assert graph.equivalent_length == 1
    assert len(graph.copies) == 1


def test_read_only_chain_is_copyless_plain_parallelism():
    graph = compile_policy(Policy.from_chain(["gateway", "caching", "monitor"])).graph
    assert graph.equivalent_length == 1
    assert graph.copies == []
