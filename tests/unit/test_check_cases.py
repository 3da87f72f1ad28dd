"""Unit tests for the fuzz-case model (``repro.check.cases``)."""

import pytest

from repro.check import FuzzCase, PacketSpec, ProfileTweak
from repro.check.cases import SOUND_TWEAK_OPS
from repro.core.actions import Verb
from repro.core.action_table import default_action_table
from repro.net.fields import Field
from repro.net.headers import PROTO_TCP, PROTO_UDP

PROTO_ICMP = 1


# ------------------------------------------------------------- PacketSpec
def test_packet_spec_builds_valid_tcp_frame():
    spec = PacketSpec(src_ip="10.1.2.3", dst_port=443, ident=77,
                      payload=b"hello", size=96)
    pkt = spec.build()
    ip = pkt.ipv4
    assert ip.src_ip == "10.1.2.3"
    assert ip.identification == 77
    assert pkt.tcp.dst_port == 443
    assert pkt.payload.startswith(b"hello")
    assert ip.verify_checksum()


def test_packet_spec_icmp_patches_protocol_and_checksum():
    pkt = PacketSpec(protocol=PROTO_ICMP).build()
    assert pkt.ipv4.protocol == PROTO_ICMP
    assert pkt.ipv4.verify_checksum()
    # Portless protocols report zero ports through the shared tuple API.
    assert pkt.five_tuple()[3:] == (0, 0)


def test_packet_spec_fragment_bits_round_trip():
    spec = PacketSpec(frag_mf=True, frag_offset=185)
    pkt = spec.build()
    assert pkt.ipv4.verify_checksum()
    again = PacketSpec.from_dict(spec.to_dict())
    assert (again.frag_mf, again.frag_offset) == (True, 185)
    assert bytes(again.build().buf) == bytes(pkt.buf)


def test_packet_spec_builds_fresh_packets():
    spec = PacketSpec(protocol=PROTO_UDP, payload=b"x" * 32)
    a, b = spec.build(), spec.build()
    assert bytes(a.buf) == bytes(b.buf)
    a.ipv4.ttl = 1
    assert bytes(a.buf) != bytes(b.buf)  # no shared buffers between planes


# ----------------------------------------------------------- ProfileTweak
def test_tweak_parse_accepts_cli_forms():
    t = ProfileTweak.parse("hidden-write:loadbalancer:DIP")
    assert (t.kind, t.op, t.field) == ("loadbalancer", "hide-write", Field.DIP)
    assert t.op not in SOUND_TWEAK_OPS
    assert ProfileTweak.parse("no-drop:firewall").op == "hide-drop"
    assert ProfileTweak.parse("add-read:monitor:TTL").op in SOUND_TWEAK_OPS
    with pytest.raises(ValueError):
        ProfileTweak.parse("hidden-write:loadbalancer")  # missing field
    with pytest.raises(ValueError):
        ProfileTweak.parse("frobnicate:monitor")


def test_hide_write_removes_only_that_write():
    table = default_action_table()
    ProfileTweak.parse("hidden-write:loadbalancer:DIP").apply(table)
    profile = table.fetch("loadbalancer")
    writes = {a.field for a in profile.actions if a.verb is Verb.WRITE}
    assert Field.DIP not in writes
    reads = {a.field for a in profile.actions if a.verb is Verb.READ}
    assert reads  # the rest of the profile survives


def test_add_read_is_additive():
    table = default_action_table()
    before = set(table.fetch("monitor").actions)
    ProfileTweak.parse("add-read:monitor:TTL").apply(table)
    after = set(table.fetch("monitor").actions)
    assert before <= after and len(after) == len(before) + 1


# --------------------------------------------------------------- FuzzCase
def _case():
    return FuzzCase(
        case_id="t",
        instances=[("fw", "firewall"), ("mon", "monitor"), ("lb", "loadbalancer")],
        rules=[("order", "fw", "mon"), ("order", "mon", "lb"),
               ("priority", "fw", "lb"), ("position", "fw", "first")],
        packets=[PacketSpec(ident=1), PacketSpec(ident=2, protocol=PROTO_ICMP)],
        tweaks=[ProfileTweak.parse("add-read:monitor:TTL")],
        seed=3,
    )


def test_fuzz_case_json_round_trip():
    case = _case()
    again = FuzzCase.from_json(case.to_json())
    assert again.to_dict() == case.to_dict()
    assert again.instances == case.instances
    assert again.rules == case.rules
    assert [p.to_dict() for p in again.packets] == [p.to_dict() for p in case.packets]
    assert again.tweaks == case.tweaks


def test_fuzz_case_policy_materialises_rules():
    policy = _case().policy()
    assert policy.nf_names() == {"fw", "mon", "lb"}


def test_restricted_to_keeps_transitive_order():
    # Deleting the middle NF must keep fw-before-lb via the closure of
    # fw->mon->lb, or the shrinker would change the case's semantics.
    sub = _case().restricted_to(["fw", "lb"])
    assert [n for n, _ in sub.instances] == ["fw", "lb"]
    assert ("order", "fw", "lb") in sub.rules
    assert all("mon" not in r for r in sub.rules)
    assert ("priority", "fw", "lb") in sub.rules
    assert ("position", "fw", "first") in sub.rules


def test_bug_injection_flag():
    # A bug injection is a tweak outside the sound ops; a plain case
    # carries none.
    assert all(t.op in SOUND_TWEAK_OPS for t in _case().tweaks)
    assert ProfileTweak.parse("no-drop:firewall").op not in SOUND_TWEAK_OPS


def test_protocols_match_skeleton_expectations():
    assert PROTO_TCP == 6 and PROTO_UDP == 17 and PROTO_ICMP == 1
