"""Tests for the Lemur-style L2/tunnel NF additions.

Round-trip properties (encap-then-decap restores the original bytes),
MAC-swap involution, dedup marking, and compiled-graph degree sweeps
showing the wider catalog sustains parallel width on Fig. 11-style
policies while Algorithm 1 still serializes the genuinely conflicting
combinations (two writers; VXLAN encapsulation).
"""

import pytest

from repro.core import NFSpec, Orchestrator, Policy
from repro.net import build_packet, internet_checksum, is_vxlan, vlan_tci, vxlan_vni
from repro.net.headers import PROTO_UDP, Ipv4View
from repro.nfs import DedupMarker, MacSwap, VlanPop, VlanPush, VxlanDecap, VxlanEncap


# ------------------------------------------------------------- round trips
def test_vlan_push_pop_round_trip():
    pkt = build_packet(payload=b"hello vlan", src_port=4242)
    original = bytes(pkt.buf)
    push, pop = VlanPush(vlan_id=123), VlanPop()

    assert not push.handle(pkt).dropped
    assert pkt.has_vlan
    assert vlan_tci(pkt) & 0xFFF == 123
    assert len(pkt.buf) == len(original) + 4
    # The tagged frame still parses: L3/L4 accessors skip the tag.
    assert pkt.tcp.src_port == 4242

    assert not pop.handle(pkt).dropped
    assert bytes(pkt.buf) == original


def test_vxlan_encap_decap_round_trip():
    pkt = build_packet(payload=b"inner payload", protocol=PROTO_UDP)
    original = bytes(pkt.buf)
    encap = VxlanEncap(vni=0xBEEF)
    decap = VxlanDecap()

    assert not encap.handle(pkt).dropped
    assert is_vxlan(pkt)
    assert vxlan_vni(pkt) == 0xBEEF
    assert len(pkt.buf) == len(original) + 50
    # The outer IPv4 header carries a valid checksum.
    outer = bytes(pkt.buf[14:14 + Ipv4View.HEADER_LEN])
    assert internet_checksum(outer) == 0

    assert not decap.handle(pkt).dropped
    assert bytes(pkt.buf) == original


def test_vxlan_decap_passes_non_tunnel_traffic_through():
    pkt = build_packet(protocol=PROTO_UDP, dst_port=53)
    before = bytes(pkt.buf)
    assert not VxlanDecap().handle(pkt).dropped
    assert bytes(pkt.buf) == before


def test_vlan_pop_passes_untagged_frames_through():
    pkt = build_packet()
    before = bytes(pkt.buf)
    assert not VlanPop().handle(pkt).dropped
    assert bytes(pkt.buf) == before


# ---------------------------------------------------------------- macswap
def test_macswap_double_apply_is_identity():
    pkt = build_packet(src_mac="02:aa:00:00:00:01", dst_mac="02:bb:00:00:00:02")
    original = bytes(pkt.buf)
    nf = MacSwap()
    nf.handle(pkt)
    assert pkt.eth.src_mac == "02:bb:00:00:00:02"
    assert pkt.eth.dst_mac == "02:aa:00:00:00:01"
    assert bytes(pkt.buf) != original
    nf.handle(pkt)
    assert bytes(pkt.buf) == original
    assert nf.swapped == 2


# ------------------------------------------------------------------ dedup
def test_dedup_marks_repeated_payloads():
    nf = DedupMarker()
    first = build_packet(payload=b"same bytes", size=96)
    second = build_packet(payload=b"same bytes", size=96)
    other = build_packet(payload=b"different!", size=96)
    nf.handle(first)
    nf.handle(second)
    nf.handle(other)
    assert first.ipv4.dscp == 0
    assert second.ipv4.dscp == DedupMarker.MARK_DSCP
    assert other.ipv4.dscp == 0
    # The rewritten header keeps a valid checksum.
    assert internet_checksum(
        bytes(second.buf[14:14 + Ipv4View.HEADER_LEN])) == 0


# ----------------------------------------------- Fig. 11-style degree sweep
def _compile_free(kinds):
    """Compile a policy with no order rules (compiler picks the shape)."""
    policy = Policy(name="sweep")
    for index, kind in enumerate(kinds):
        policy.declare(NFSpec(f"n{index}", kind))
        policy._touch(f"n{index}")
    return Orchestrator().compile(policy).graph


#: Mutually parallelizable mixes only expressible with the widened
#: catalog: an L2 writer (macswap) and a VLAN pusher next to readers.
SWEEP_CHAINS = [
    ["monitor", "macswap"],
    ["monitor", "gateway", "macswap"],
    ["monitor", "gateway", "macswap", "vlan-push"],
]


@pytest.mark.parametrize("kinds", SWEEP_CHAINS, ids=[str(len(c)) for c in SWEEP_CHAINS])
def test_wider_catalog_sustains_full_parallel_width(kinds):
    graph = _compile_free(kinds)
    # Equivalent length 1 == every NF in one parallel stage: the
    # parallelism degree equals the policy size at each sweep point.
    assert graph.equivalent_length == 1, graph.describe()
    assert len(graph.nf_names()) == len(kinds)


def test_two_new_writers_still_serialize():
    # macswap writes MACs, dedup reads the payload: (Write, Read) is
    # never parallelizable, in either direction.
    graph = _compile_free(["macswap", "dedup"])
    assert graph.equivalent_length == 2, graph.describe()


def test_vxlan_encapsulation_never_parallelizes():
    # The outer stack re-homes every field referent; Algorithm 1's
    # encapsulation guard forces sequential placement even against a
    # pure reader.
    graph = _compile_free(["monitor", "vxlan-encap"])
    assert graph.equivalent_length == 2, graph.describe()
    graph = _compile_free(["monitor", "vxlan-decap"])
    assert graph.equivalent_length == 2, graph.describe()


@pytest.mark.parametrize("high, low", [("nat", "vxlan-encap"),
                                       ("vxlan-encap", "nat")])
def test_a_priority_rule_sequences_an_encapsulating_nf(high, low):
    # Priority declares a pair parallel, but no merge reconciles a new
    # outer stack with the other NF's view of the inner packet: the low
    # NF runs first, so the high one's effect wins, and the operator is
    # told.
    policy = Policy(name="priority")
    policy.declare(NFSpec("nat", "nat")).declare(NFSpec("vxlan-encap", "vxlan-encap"))
    result = Orchestrator().compile(policy.priority(high, low))
    assert [[entry.node.name for entry in stage]
            for stage in result.graph.stages] == [[low], [high]]
    assert not result.graph.merge_ops
    assert any("encapsulating" in warning for warning in result.warnings)
