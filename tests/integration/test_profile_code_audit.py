"""Audit: the action table's claims vs what the NF code actually does.

The orchestrator trusts the Table 2 profiles; these tests use the §5.4
inspector on the real NF implementations and check that every *effect*
the table promises (writes, structural changes, drops) is present in
the code -- so graph compilation decisions rest on code-accurate
profiles.  Documented divergences (our NAT is SNAT-only) are asserted
explicitly rather than ignored.
"""

import pytest

from repro.core import Verb, default_action_table, inspect_nf
from repro.net import Field
from repro.nfs import nf_class

#: NF kinds whose implementation matches the table row exactly on the
#: effect actions (writes / adds / removes / drop).
EXACT_EFFECT_KINDS = [
    "monitor",
    "loadbalancer",
    "gateway",
    "caching",
    "ids",
    "nids",
    "vpn",
    "vpn-decrypt",
    "conntrack-firewall",
    # Joined after the trace-based profile audit widened its row with
    # the TTL read/write and the no-route/TTL-expired drop.
    "forwarder",
    # Born-audited additions (Lemur-style L2/tunnel catalog).
    "macswap",
    "vlan-push",
    "vlan-pop",
    "vxlan-encap",
    "vxlan-decap",
    "dedup",
]


@pytest.mark.parametrize("kind", EXACT_EFFECT_KINDS)
def test_effect_actions_match_table(kind):
    table_profile = default_action_table().fetch(kind)
    code_profile = inspect_nf(nf_class(kind))
    assert code_profile.writes == table_profile.writes, kind
    assert code_profile.adds == table_profile.adds, kind
    assert code_profile.removes == table_profile.removes, kind
    assert code_profile.may_drop == table_profile.may_drop, kind


@pytest.mark.parametrize("kind", EXACT_EFFECT_KINDS + ["firewall", "nat"])
def test_code_reads_no_more_than_table_plus_ttl(kind):
    """Reads found in code are covered by the table (TTL excepted:
    forwarding-style reads the table's column set does not model)."""
    table_profile = default_action_table().fetch(kind)
    code_profile = inspect_nf(nf_class(kind))
    extra = code_profile.reads - table_profile.reads - {Field.TTL}
    assert not extra, f"{kind} reads undeclared fields: {extra}"


def test_firewall_drop_declared():
    assert inspect_nf(nf_class("firewall")).may_drop
    assert default_action_table().fetch("firewall").may_drop


def test_known_divergence_nat_is_snat():
    """Our NAT implements SNAT (writes sip/sport); the table keeps the
    paper's full-cone row (writes all four).  The table is the safer,
    more conservative profile, so compilation stays sound.  It also no
    longer drops anything: non-TCP/UDP traffic passes through, matching
    the row's missing Drop (found by the profile-audit oracle)."""
    table_profile = default_action_table().fetch("nat")
    code_profile = inspect_nf(nf_class("nat"))
    assert code_profile.writes == {Field.SIP, Field.SPORT}
    assert code_profile.writes < table_profile.writes
    assert not code_profile.may_drop
    assert not table_profile.may_drop


def test_forwarder_row_covers_ttl_and_drop():
    """The trace-based audit found the forwarder's TTL decrement path
    (read+write) and its no-route/TTL-expired drop; the row now declares
    all three, so the inspector and the table agree."""
    table_profile = default_action_table().fetch("forwarder")
    assert Field.TTL in table_profile.reads
    assert Field.TTL in table_profile.writes
    assert table_profile.may_drop


@pytest.mark.parametrize("kind", EXACT_EFFECT_KINDS + ["firewall"])
def test_registering_inspected_profile_compiles(kind):
    """An operator can onboard any shipped NF purely via inspection."""
    from repro.core import Orchestrator, Policy

    orch = Orchestrator()
    profile = inspect_nf(nf_class(kind), name=f"audited-{kind}")
    orch.action_table.register(profile)
    policy = Policy(name="audit")
    policy.declare(__import__("repro.core", fromlist=["NFSpec"]).NFSpec(
        "x", f"audited-{kind}"))
    policy._touch("x")
    graph = orch.compile(policy).graph
    assert graph.nf_names() == ["x"]
