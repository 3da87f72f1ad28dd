"""Unit tests for repro.profiles: trace aggregation and the audit diff."""

import json

from repro.core.action_table import ActionTable, default_action_table
from repro.core.actions import Action, ActionProfile, Verb
from repro.net import Field
from repro.net.recorder import AccessEvent
from repro.profiles import (
    Finding,
    ProfileAuditor,
    audit_catalog,
    hard_findings,
    infer_profiles,
)


def _event(kind, verb, field, uid=1, name=None):
    return AccessEvent(name or f"{kind}.0", kind, verb, field, uid)


# -------------------------------------------------------------- inference
def test_infer_groups_by_kind_and_counts():
    events = [
        _event("firewall", "read", Field.SIP, uid=1),
        _event("firewall", "read", Field.SIP, uid=2),
        _event("firewall", "drop", None, uid=2),
        _event("nat", "write", Field.SPORT, uid=1),
    ]
    profiles = infer_profiles(events)
    assert set(profiles) == {"firewall", "nat"}
    fw = profiles["firewall"]
    assert fw.packets_seen == 2
    read = fw.observations[Action(Verb.READ, Field.SIP)]
    assert read.count == 2
    assert read.first_packet_uid == 1
    assert Action(Verb.DROP) in fw.observations
    assert profiles["nat"].actions == {Action(Verb.WRITE, Field.SPORT)}


def test_copy_events_are_attribution_only():
    events = [
        _event("proxy", "copy-full", None),
        _event("proxy", "copy-header", None),
        _event("proxy", "read", Field.PAYLOAD),
    ]
    profile = infer_profiles(events)["proxy"]
    assert profile.actions == {Action(Verb.READ, Field.PAYLOAD)}
    assert profile.packets_seen == 1  # copies still mark the packet as seen


def test_inferred_profile_registers_as_action_profile():
    events = [_event("custom", "write", Field.TTL)]
    inferred = infer_profiles(events)["custom"]
    table = ActionTable()
    table.register(ActionProfile(inferred.kind, inferred.actions))
    assert table.fetch("custom").writes == {Field.TTL}


# ------------------------------------------------------------------ audit
def test_clean_profile_yields_no_findings():
    events = [
        _event("monitor", "read", Field.SIP),
        _event("monitor", "read", Field.DIP),
        _event("monitor", "read", Field.SPORT),
        _event("monitor", "read", Field.DPORT),
    ]
    findings = ProfileAuditor(default_action_table()).audit(
        infer_profiles(events))
    assert findings == []


def test_undeclared_write_is_a_hard_finding_with_witness():
    events = [
        _event("monitor", "write", Field.TTL, uid=7, name="mon.2"),
        _event("monitor", "write", Field.TTL, uid=8, name="mon.2"),
    ]
    findings = ProfileAuditor(default_action_table()).audit(
        infer_profiles(events))
    hard = hard_findings(findings)
    assert len(hard) == 1
    finding = hard[0]
    assert finding.kind == "monitor"
    assert finding.verb == "write"
    assert finding.field == "ttl"
    assert finding.nf_name == "mon.2"
    assert finding.packet_uid == 7
    assert finding.count == 2


def test_undeclared_drop_and_structural_ops_are_hard():
    table = default_action_table()
    events = [
        _event("monitor", "drop", None),
        _event("gateway", "add", Field.VLAN_HEADER),
    ]
    hard = hard_findings(ProfileAuditor(table).audit(infer_profiles(events)))
    assert {(f.kind, f.verb) for f in hard} == {
        ("monitor", "drop"), ("gateway", "add"),
    }


def test_unregistered_kind_is_hard():
    events = [_event("mystery-nf", "read", Field.SIP)]
    findings = ProfileAuditor(default_action_table()).audit(
        infer_profiles(events))
    assert len(findings) == 1
    assert findings[0].hard
    assert "no declared action profile" in findings[0].message


def test_declared_but_unobserved_is_informational():
    # firewall declares Drop + four reads; only exercise one read.
    events = [_event("firewall", "read", Field.SIP)]
    findings = ProfileAuditor(default_action_table()).audit(
        infer_profiles(events))
    assert findings and not hard_findings(findings)
    assert all("never observed" in f.message for f in findings)


def test_whole_packet_declaration_covers_concrete_accesses():
    table = ActionTable()
    table.register(ActionProfile("scrubber", [
        Action(Verb.READ, Field.WHOLE_PACKET),
        Action(Verb.WRITE, Field.WHOLE_PACKET),
    ]))
    events = [
        _event("scrubber", "read", Field.SPORT),
        _event("scrubber", "write", Field.PAYLOAD),
    ]
    findings = ProfileAuditor(table).audit(infer_profiles(events))
    # No hard findings (whole-packet covers both) and no info findings
    # (the concrete accesses exercise the whole-packet declarations).
    assert findings == []


def test_findings_json_round_trip():
    events = [_event("monitor", "write", Field.TTL, uid=3)]
    findings = ProfileAuditor(default_action_table()).audit(
        infer_profiles(events))
    blob = json.dumps([f.to_dict() for f in findings], sort_keys=True)
    back = [Finding.from_dict(d) for d in json.loads(blob)]
    assert [f.to_dict() for f in back] == [f.to_dict() for f in findings]


# ---------------------------------------------------------------- harness
def test_audit_catalog_explicit_chain():
    report = audit_catalog(kinds=["vlan-push", "vlan-pop"], cases=5, seed=2)
    assert report.ok, [f.message for f in report.hard]
    assert set(report.inferred) == {"vlan-push", "vlan-pop"}
    rows = report.rows()
    assert [r["kind"] for r in rows] == ["vlan-pop", "vlan-push"]
    assert all(r["hard"] == 0 for r in rows)


def test_audit_catalog_catches_a_narrowed_declaration():
    table = default_action_table()
    # Re-declare the load balancer without its DIP write: the audit must
    # flag the real write as undeclared.
    honest = table.fetch("loadbalancer")
    narrowed = ActionProfile(
        "loadbalancer",
        [a for a in honest.actions
         if a != Action(Verb.WRITE, Field.DIP)],
    )
    table.register(narrowed, replace=True)
    report = audit_catalog(kinds=["loadbalancer"], cases=10, seed=0,
                           table=table)
    assert not report.ok
    assert any(
        f.kind == "loadbalancer" and f.verb == "write" and f.field == "dip"
        for f in report.hard
    )
