"""Unit tests for CT/FT table generation and the inspector (§4.4.3, §5.4)."""

import pytest

from repro.core import (
    ClassificationTable,
    CTEntry,
    ForwardingTable,
    FTAction,
    FTActionKind,
    MERGER_TARGET,
    Orchestrator,
    Policy,
    Verb,
    build_tables,
    compile_policy,
    inspect_nf,
    inspect_nf_source,
)
from repro.core.inspector import InspectionError
from repro.net import Field
from repro.net.packet import encode_flow_key
from repro.nfs import Firewall, LoadBalancer, Monitor, Nat, VpnEncryptor


def graph_for(chain):
    return compile_policy(Policy.from_chain(chain)).graph


# -------------------------------------------------------------- FT actions
def test_ftaction_validation():
    with pytest.raises(ValueError):
        FTAction(FTActionKind.COPY)  # needs new version
    with pytest.raises(ValueError):
        FTAction(FTActionKind.DISTRIBUTE)  # needs targets
    action = FTAction(FTActionKind.DISTRIBUTE, version=1, targets=["a"])
    assert "distribute" in repr(action)


def test_sequential_graph_tables_have_output_action():
    tables = build_tables(graph_for(["nat", "loadbalancer"]), mid=7)
    assert tables.ct_entry.total_count == 1
    last = tables.forwarding["loadbalancer"]
    assert last[-1].kind is FTActionKind.OUTPUT
    first = tables.forwarding["nat"]
    assert first == [FTAction(FTActionKind.DISTRIBUTE, 1, ["loadbalancer"])]


def test_parallel_graph_tables_route_to_merger():
    tables = build_tables(graph_for(["ids", "monitor", "loadbalancer"]), mid=3)
    entry = tables.ct_entry
    assert entry.total_count == 3
    kinds = [a.kind for a in entry.actions]
    assert FTActionKind.COPY in kinds
    # Every NF's final action targets the merger.
    for actions in tables.forwarding.values():
        assert actions[-1].targets == [MERGER_TARGET]


def test_midgraph_copy_attached_to_prior_stage():
    # monitor->nat->vpn compiles to (nat | monitor[v2]) -> vpn; the copy
    # happens at stage 0, i.e. in the classifier's actions.
    tables = build_tables(graph_for(["monitor", "nat", "vpn"]), mid=1)
    copy_actions = [a for a in tables.ct_entry.actions if a.kind is FTActionKind.COPY]
    assert len(copy_actions) == 1
    # NAT (stage 0, v1, not final) forwards to the vpn.
    nat_actions = tables.forwarding["nat"]
    assert any(
        a.kind is FTActionKind.DISTRIBUTE and a.targets == ["vpn"]
        for a in nat_actions
    )


def test_nf_with_later_stage_copy_emits_copy_action():
    # Build a graph where a copy version starts at stage 1: vpn -> (monitor | lb).
    graph = graph_for(["vpn", "monitor", "loadbalancer"])
    if any(c.stage_index > 0 for c in graph.copies):
        tables = build_tables(graph, mid=1)
        vpn_actions = tables.forwarding["vpn"]
        assert any(a.kind is FTActionKind.COPY for a in vpn_actions)


# ------------------------------------------------------ table containers
def test_classification_table_wildcard_fallback():
    table = ClassificationTable()
    table.install(CTEntry("*", mid=1, total_count=1, merge_ops=[], actions=[]))
    five = ("10.0.0.1", "10.0.0.2", 6, 1, 2)
    assert table.lookup(encode_flow_key(five)).mid == 1
    assert table.lookup(None).mid == 1  # a frame with no key
    exact = CTEntry(five, mid=2, total_count=1, merge_ops=[], actions=[])
    table.install(exact)
    assert table.lookup(encode_flow_key(five)).mid == 2
    assert table.by_mid(2) is exact
    with pytest.raises(KeyError):
        table.by_mid(99)


def test_forwarding_table_lookup():
    table = ForwardingTable("fw")
    actions = [FTAction(FTActionKind.OUTPUT, 1)]
    table.install(5, actions)
    assert table.lookup(5) == actions
    assert table.mids() == [5]
    with pytest.raises(KeyError):
        table.lookup(6)


# -------------------------------------------------------------- inspector
def test_inspector_derives_monitor_profile():
    profile = inspect_nf(Monitor)
    assert profile.reads == {Field.SIP, Field.DIP, Field.SPORT, Field.DPORT}
    assert not profile.writes and not profile.may_drop


def test_inspector_derives_loadbalancer_profile():
    profile = inspect_nf(LoadBalancer)
    assert {Field.SIP, Field.DIP} <= profile.writes


def test_inspector_detects_drop_and_reads():
    profile = inspect_nf(Firewall)
    assert profile.may_drop
    assert Field.SIP in profile.reads


def test_inspector_detects_structural_actions():
    profile = inspect_nf(VpnEncryptor)
    assert Verb.ADD in {a.verb for a in profile.actions}
    assert Field.PAYLOAD in profile.writes


def test_inspector_detects_nat_writes():
    profile = inspect_nf(Nat)
    assert Field.SIP in profile.writes
    assert Field.SPORT in profile.writes


def test_inspector_on_source_text():
    profile = inspect_nf_source(
        """
def process(pkt, ctx):
    pkt.ipv4.ttl -= 1
    if pkt.ipv4.ttl == 0:
        ctx.drop("expired")
""",
        name="ttl-nf",
    )
    assert Field.TTL in profile.reads and Field.TTL in profile.writes
    assert profile.may_drop


def test_inspector_rejects_bad_source():
    with pytest.raises(InspectionError):
        inspect_nf_source("def broken(:", name="x")


def test_orchestrator_register_nf_via_inspection():
    orch = Orchestrator()

    class TtlScrubber:
        KIND = "ttl-scrubber"

        def process(self, pkt, ctx):
            pkt.ipv4.ttl = 64

    profile = orch.register_nf(TtlScrubber)
    assert profile.name == "ttl-scrubber"
    assert orch.action_table.fetch("ttl-scrubber").writes == {Field.TTL}
