"""Unit tests for the NFP compiler (§4.4) -- the paper's key graphs."""

import pytest

from repro.core import (
    CompileError,
    MergeOpKind,
    NFSpec,
    Orchestrator,
    Policy,
    PolicyConflictError,
    compile_policy,
)
from repro.core.actions import Action, ActionProfile, Verb
from repro.core.compiler import MAX_VERSIONS
from repro.net import Field, PacketMeta


def compiled(chain, **kwargs):
    return compile_policy(Policy.from_chain(chain, **kwargs))


# ------------------------------------------------- the paper's two graphs
def test_north_south_chain_matches_fig13():
    result = compiled(["vpn", "monitor", "firewall", "loadbalancer"])
    graph = result.graph
    # VPN first (structural actions), monitor || firewall, LB after the
    # firewall (drop/write dependency) -- equivalent length 3, no copies.
    assert graph.equivalent_length == 3
    assert graph.num_versions == 1
    assert [len(s) for s in graph.stages] == [1, 2, 1]
    assert graph.stages[0].entries[0].node.kind == "vpn"
    middle = {e.node.kind for e in graph.stages[1]}
    assert middle == {"monitor", "firewall"}
    assert graph.stages[2].entries[0].node.kind == "loadbalancer"
    assert graph.merge_ops == []


def test_west_east_chain_matches_fig13():
    graph = compiled(["ids", "monitor", "loadbalancer"]).graph
    # All three parallel; the LB conflicts with the readers and gets its
    # own header-only copy -- degree 2, exactly the paper's 8.8%.
    assert graph.equivalent_length == 1
    assert graph.num_versions == 2
    lb_entry = next(e for e in graph.stages[0] if e.node.kind == "loadbalancer")
    assert lb_entry.version == 2
    assert len(graph.copies) == 1 and graph.copies[0].header_only
    fields = {op.field for op in graph.merge_ops}
    assert fields == {Field.SIP, Field.DIP}
    assert all(op.kind is MergeOpKind.MODIFY for op in graph.merge_ops)
    assert graph.total_count == 3


# ----------------------------------------------------------- placement
def test_read_only_chain_fully_parallel():
    graph = compiled(["gateway", "caching", "monitor"]).graph
    assert graph.equivalent_length == 1
    assert graph.num_versions == 1


def test_write_read_chain_stays_sequential():
    graph = compiled(["nat", "loadbalancer"]).graph
    assert graph.is_sequential


def test_downstream_dependent_forces_v1():
    # NAT's writes feed the VPN: NAT must hold the original buffer and
    # the monitor is pushed onto a copy.
    graph = compiled(["monitor", "nat", "vpn"]).graph
    assert [len(s) for s in graph.stages] == [2, 1]
    nat = next(e for e in graph.stages[0] if e.node.kind == "nat")
    mon = next(e for e in graph.stages[0] if e.node.kind == "monitor")
    assert nat.version == 1
    assert mon.version == 2
    # Monitor is read-only: a copy, but no merge op.
    assert graph.merge_ops == []


def test_conflicting_v1_claimants_are_sequentialised():
    # Two writers that both feed a later NF cannot share the buffer:
    # nat writes the 4-tuple, proxy writes dip/payload; both before vpn.
    graph = compiled(["nat", "proxy", "vpn"]).graph
    kinds_per_stage = [{e.node.kind for e in s} for s in graph.stages]
    # nat and proxy cannot share a stage on v1 -> 3 sequential stages.
    assert len(graph.stages) == 3
    assert kinds_per_stage[-1] == {"vpn"}


def test_payload_toucher_gets_full_copy():
    # caching reads the payload; parallel with nat (writer) it must land
    # on a full (not header-only) copy.
    graph = compiled(["caching", "nat", "monitor"]).graph
    caching = next(e for s in graph.stages for e in s if e.node.kind == "caching")
    if caching.version != 1:
        spec = next(c for c in graph.copies if c.version == caching.version)
        assert not spec.header_only


# ------------------------------------------------------------- positions
def test_position_first_pins_head():
    policy = Policy().position("vpn", "first").order("firewall", "loadbalancer")
    policy.order("monitor", "loadbalancer")
    graph = compile_policy(policy).graph
    assert graph.stages[0].entries[0].node.kind == "vpn"
    assert len(graph.stages[0]) == 1


def test_position_last_pins_tail():
    policy = Policy().position("monitor", "last").order("firewall", "gateway")
    graph = compile_policy(policy).graph
    assert graph.stages[-1].entries[0].node.kind == "monitor"
    assert len(graph.stages[-1]) == 1


# ------------------------------------------------------------- priorities
def test_priority_pair_runs_parallel():
    policy = Policy().priority("ips", "firewall")
    graph = compile_policy(policy).graph
    assert graph.equivalent_length == 1
    assert {e.node.kind for e in graph.stages[0]} == {"ips", "firewall"}


def test_priority_orders_merge_wins():
    # Two writers of the same field in a Priority rule: the high-priority
    # NF's version must win the merge.
    policy = Policy().declare(NFSpec("lb1", "loadbalancer")).declare(
        NFSpec("lb2", "loadbalancer"))
    policy.priority("lb1", "lb2")
    graph = compile_policy(policy).graph
    entry = {e.node.name: e for s in graph.stages for e in s}
    assert entry["lb1"].node.priority > entry["lb2"].node.priority
    sip_op = next(op for op in graph.merge_ops if op.field is Field.SIP)
    assert sip_op.src_version == entry["lb1"].version or entry["lb1"].version == 1


def test_order_priority_later_nf_wins_merge():
    # "the NF with the back order is assigned a higher priority" (§3).
    graph = compiled(["monitor", "loadbalancer"]).graph
    entries = {e.node.kind: e for e in graph.stages[0]}
    assert entries["loadbalancer"].node.priority > entries["monitor"].node.priority


# ---------------------------------------------------------------- free NFs
def test_free_nf_joins_parallel_stage():
    policy = Policy().order("firewall", "loadbalancer")
    policy.declare(NFSpec("monitor"))
    policy._touch("monitor")
    graph = compile_policy(policy).graph
    assert "monitor" in graph.nf_names()


def test_unparallelizable_free_pair_warns_and_sequences():
    policy = Policy().declare(NFSpec("nat")).declare(NFSpec("vpn"))
    policy._touch("nat")
    policy._touch("vpn")
    result = compile_policy(policy)
    assert any("not parallelizable" in w for w in result.warnings)
    assert result.graph.equivalent_length == 2


# ----------------------------------------------------------------- errors
def test_conflicting_policy_rejected():
    policy = Policy().declare(NFSpec("a", "firewall")).declare(
        NFSpec("b", "monitor"))
    policy.order("a", "b").order("b", "a")
    with pytest.raises(PolicyConflictError):
        compile_policy(policy)


def test_unknown_nf_kind_rejected():
    with pytest.raises(KeyError):
        compile_policy(Policy.from_chain(["firewall", "unicorn"]))


# ------------------------------------------------------------ decisions
def test_decisions_exposed_for_each_ordered_pair():
    result = compiled(["vpn", "monitor", "firewall", "loadbalancer"])
    assert ("monitor", "firewall") in result.decisions
    assert result.decisions[("monitor", "firewall")].parallelizable
    assert not result.decisions[("vpn", "monitor")].parallelizable


def test_orchestrator_deploy_allocates_mids():
    orch = Orchestrator()
    a = orch.deploy(Policy.from_chain(["firewall", "monitor"], name="a"))
    b = orch.deploy(Policy.from_chain(["gateway", "caching"], name="b"))
    assert a.mid != b.mid
    assert {d.mid for d in orch.deployed()} == {a.mid, b.mid}
    assert orch.get(b.mid) is b


# ------------------------------------------- version-field bound (4 bits)
def _same_field_writers(n):
    """A chain of ``n`` NFs that all write the same field.

    (WRITE, WRITE) on overlapping fields is parallelizable-with-copy in
    both directions but never buffer-sharable, so the compiler must give
    every NF its own packet version -- the worst case for the 4-bit
    metadata version field.
    """
    orch = Orchestrator()
    kinds = []
    for i in range(n):
        kind = f"scrub{i}"
        orch.action_table.register(
            ActionProfile(kind, [Action(Verb.WRITE, Field.TTL)]))
        kinds.append(kind)
    return orch, Policy.from_chain(kinds)


def test_version_ceiling_is_the_metadata_field_maximum():
    # The compiler's ceiling and the 4-bit version field's largest value
    # are the same number: 15 concurrent versions fit, 16 cannot be tagged.
    assert MAX_VERSIONS == (1 << PacketMeta.VERSION_BITS) - 1


def test_fifteen_versions_fill_the_metadata_field_exactly():
    orch, policy = _same_field_writers(MAX_VERSIONS)
    graph = orch.compile(policy).graph
    versions = set()
    for stage in graph.stages:
        versions |= stage.versions()
    assert versions == set(range(1, MAX_VERSIONS + 1))
    assert graph.num_versions == MAX_VERSIONS


def test_sixteen_versions_rejected_with_compile_error():
    orch, policy = _same_field_writers(MAX_VERSIONS + 1)
    with pytest.raises(CompileError) as err:
        orch.compile(policy)
    assert "version" in str(err.value)
    # CompileError is a ValueError so pre-existing callers that catch
    # compilation failures broadly keep working.
    assert isinstance(err.value, ValueError)
