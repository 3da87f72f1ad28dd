"""Unit tests for CT generation, the FT view and the inspector (§4.4.3, §5.4)."""

import pytest

from repro.core import (
    ClassificationTable,
    CompiledGraph,
    CTEntry,
    Orchestrator,
    Policy,
    Verb,
    build_tables,
    compile_policy,
    inspect_nf,
    inspect_nf_source,
    table_view,
)
from repro.core.inspector import InspectionError
from repro.dataplane import ChainingManager
from repro.net import Field
from repro.net.packet import encode_flow_key
from repro.nfs import Firewall, LoadBalancer, Monitor, Nat, VpnEncryptor


def graph_for(chain):
    return compile_policy(Policy.from_chain(chain)).graph


def installed(chain, mid):
    """The chain's compiled record, as a server's chaining manager holds it."""
    manager = ChainingManager()
    manager.install(build_tables(graph_for(chain), mid=mid))
    return manager.compiled_for(mid)


# ------------------------------------------------- FT view of the step table
def test_ftaction_validation():
    # A copy always names its new version and a forward always has
    # targets: no step of a parallel graph fans out to nobody.
    compiled = installed(["vpn", "monitor", "firewall", "loadbalancer"], 1)
    for _, (last, fan_in, due, targets) in compiled.steps.items():
        assert fan_in >= 1
        for spec, names in due:
            assert spec.version > 1 and names
        assert last or targets or due
    ct_row, forwarding = table_view(compiled, CTEntry("*", 1))
    assert "distribute(v1, ['vpn'])" in ct_row
    assert forwarding["vpn"] == "[distribute(v1, ['firewall', 'monitor'])]"


def test_sequential_graph_tables_have_output_action():
    compiled = installed(["nat", "loadbalancer"], 7)
    assert compiled.total_count == 1
    assert not compiled.needs_merger  # the last NF outputs, no merger
    (_, version), (last, _, _, _) = compiled.by_nf["loadbalancer"]
    assert last and version == 1
    _, (last, _, due, targets) = compiled.by_nf["nat"]
    assert not last and due == () and targets == ("loadbalancer",)


def test_parallel_graph_tables_route_to_merger():
    compiled = installed(["ids", "monitor", "loadbalancer"], 3)
    assert compiled.total_count == 3
    assert compiled.program[0][0]  # the classifier cuts a copy
    # Every NF's completion ends its version and goes to the merger.
    assert compiled.needs_merger
    assert all(step[0] for _, step in compiled.by_nf.values())


def test_midgraph_copy_attached_to_prior_stage():
    # monitor->nat->vpn compiles to (nat | monitor[v2]) -> vpn; the copy
    # happens at stage 0, i.e. in the classifier's actions.
    compiled = installed(["monitor", "nat", "vpn"], 1)
    assert len(compiled.program[0][0]) == 1
    assert compiled.stage0 == ((1, "nat"), (2, "monitor"))
    # NAT (stage 0, v1, not final) forwards to the vpn.
    _, (last, _, _, targets) = compiled.by_nf["nat"]
    assert not last and targets == ("vpn",)


def test_nf_with_later_stage_copy_emits_copy_action():
    # Build a graph where a copy version starts at stage 1: vpn -> (monitor | lb).
    graph = graph_for(["vpn", "monitor", "loadbalancer"])
    if any(c.stage_index > 0 for c in graph.copies):
        _, (_, _, due, _) = CompiledGraph(graph).by_nf["vpn"]
        assert due


# ------------------------------------------------------ table containers
def test_classification_table_wildcard_fallback():
    table = ClassificationTable()
    table.install(CTEntry("*", mid=1))
    five = ("10.0.0.1", "10.0.0.2", 6, 1, 2)
    assert table.lookup(encode_flow_key(five)).mid == 1
    assert table.lookup(None).mid == 1  # a frame with no key
    exact = CTEntry(five, mid=2)
    table.install(exact)
    assert table.lookup(encode_flow_key(five)).mid == 2
    assert table.by_mid(2) is exact
    with pytest.raises(KeyError):
        table.by_mid(99)


def test_forwarding_table_lookup():
    manager = ChainingManager()
    manager.install(build_tables(graph_for(["firewall"]), mid=5))
    (_, version), (last, _, _, _) = manager.compiled_for(5).by_nf["firewall"]
    assert last and version == 1
    assert manager.mids() == [5]
    with pytest.raises(KeyError):
        manager.compiled_for(6)
    with pytest.raises(KeyError):
        manager.compiled_for(5).by_nf["ghost"]


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
