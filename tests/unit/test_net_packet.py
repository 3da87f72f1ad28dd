"""Unit tests for Packet, PacketMeta, and build_packet."""

import pytest

from repro.core import Policy, compile_policy
from repro.dataplane import FunctionalDataplane, SequentialReference
from repro.net import (
    HEADER_COPY_BYTES,
    PROTO_TCP,
    PROTO_UDP,
    Packet,
    PacketMeta,
    build_packet,
)
from repro.nfs import Nat, create_nf


# ------------------------------------------------------------- PacketMeta
def test_meta_pack_unpack_roundtrip():
    meta = PacketMeta(mid=123456, pid=(1 << 39) + 7, version=9)
    word = meta.pack()
    assert word < (1 << 64)
    assert PacketMeta.unpack(word) == meta


def test_meta_field_ranges():
    with pytest.raises(ValueError):
        PacketMeta(mid=1 << 20)
    with pytest.raises(ValueError):
        PacketMeta(pid=1 << 40)
    with pytest.raises(ValueError):
        PacketMeta(version=16)


def test_meta_clone_changes_version_only():
    meta = PacketMeta(mid=5, pid=77, version=1)
    clone = meta.clone(version=3)
    assert (clone.mid, clone.pid, clone.version) == (5, 77, 3)
    assert meta.version == 1


def test_meta_bit_widths_match_paper():
    # Fig. 5: 20-bit MID ("1M service graphs"), 40-bit PID, 4-bit version.
    assert PacketMeta.MID_BITS == 20
    assert PacketMeta.PID_BITS == 40
    assert PacketMeta.VERSION_BITS == 4
    assert PacketMeta.MID_BITS + PacketMeta.PID_BITS + PacketMeta.VERSION_BITS == 64


# ----------------------------------------------------------- build_packet
def test_build_packet_padded_to_size():
    pkt = build_packet(size=128, payload=b"xyz")
    assert len(pkt.buf) == 128
    assert pkt.wire_len == 128
    assert pkt.payload.startswith(b"xyz")
    assert pkt.payload[3:] == bytes(128 - 54 - 3)


def test_build_packet_rejects_too_small():
    with pytest.raises(ValueError):
        build_packet(size=40)


def test_build_packet_rejects_overflow_payload():
    with pytest.raises(ValueError):
        build_packet(size=64, payload=b"x" * 100)


def test_build_packet_unsupported_protocol():
    with pytest.raises(ValueError):
        build_packet(protocol=47)


def test_five_tuple_tcp_and_udp():
    tcp = build_packet(src_ip="10.0.0.1", dst_ip="10.0.0.2",
                       src_port=1000, dst_port=80, size=64)
    assert tcp.five_tuple() == ("10.0.0.1", "10.0.0.2", PROTO_TCP, 1000, 80)
    udp = build_packet(protocol=PROTO_UDP, src_port=53, dst_port=5353, size=64)
    assert udp.five_tuple()[2:] == (PROTO_UDP, 53, 5353)


def test_identification_deterministic_when_given():
    a = build_packet(size=64, identification=77)
    b = build_packet(size=64, identification=77)
    assert bytes(a.buf) == bytes(b.buf)


# ----------------------------------------------------------------- copies
def test_full_copy_is_independent():
    pkt = build_packet(size=96, payload=b"data")
    pkt.meta = PacketMeta(mid=1, pid=2, version=1)
    copy = pkt.full_copy(version=2)
    assert bytes(copy.buf) == bytes(pkt.buf)
    assert copy.meta.version == 2
    copy.ipv4.src_ip = "9.9.9.9"
    assert pkt.ipv4.src_ip != "9.9.9.9"


def test_header_copy_is_64_bytes_with_fixed_length_field():
    pkt = build_packet(size=1500)
    pkt.meta = PacketMeta(mid=1, pid=2, version=1)
    copy = pkt.header_copy(version=2)
    assert len(copy.buf) == HEADER_COPY_BYTES
    assert copy.is_header_copy
    # §4.2 OP#2: the length field covers only the copied bytes, so the
    # copy is a self-consistent packet.
    assert copy.ipv4.total_length == HEADER_COPY_BYTES - 14
    # Wire length still reports the original frame size.
    assert copy.wire_len == 1500
    # Header fields are readable and writable on the copy.
    assert copy.tcp.dst_port == 80
    copy.ipv4.dst_ip = "4.4.4.4"
    assert pkt.ipv4.dst_ip != "4.4.4.4"


def test_header_copy_of_small_packet():
    pkt = build_packet(size=64)
    copy = pkt.header_copy(version=2)
    assert len(copy.buf) == 64


def test_nil_packet_carries_meta():
    pkt = build_packet(size=64)
    pkt.meta = PacketMeta(mid=3, pid=9, version=1)
    nil = pkt.make_nil()
    assert nil.nil
    assert len(nil.buf) == 0
    assert nil.meta == pkt.meta
    assert nil.wire_len == 0


def test_set_payload_length_preserving_only():
    pkt = build_packet(size=100, payload=b"abcd")
    with pytest.raises(ValueError):
        pkt.set_payload(b"too-long-payload-for-this-frame" * 5)
    pkt.set_payload(b"Z" * len(pkt.payload))
    assert set(pkt.payload) == {ord("Z")}


def test_payload_offset_tcp():
    pkt = build_packet(size=100)
    assert pkt.payload_offset == 14 + 20 + 20
    assert len(pkt.payload) == 100 - 54


def test_packet_repr_smoke():
    pkt = build_packet(size=64)
    assert "Packet" in repr(pkt)


# ------------------------------------------------- IPv4 IHL below RFC 791's 5
def _short_ihl_frame(ihl):
    """A TCP frame whose IHL claims fewer than the 20 fixed bytes."""
    pkt = build_packet(src_ip="10.1.2.3", src_port=4321, size=96,
                       identification=7)
    pkt.buf[14] = 0x40 | ihl
    return pkt


@pytest.mark.parametrize("ihl", [0, 2, 4])
def test_ipv4_header_with_ihl_below_five_is_refused(ihl):
    # An IHL of 2 used to put the "TCP header" at byte 22: the key read
    # TTL/protocol and the checksum as ports, and the NAT wrote its
    # external port over TTL and protocol.
    pkt = _short_ihl_frame(ihl)
    before = bytes(pkt.buf)
    for read in (pkt.flow_key, pkt.port_key, pkt.five_tuple,
                 lambda: pkt.ipv4, lambda: pkt.l4_protocol,
                 lambda: pkt.payload):
        with pytest.raises(ValueError):
            read()
    assert not pkt.has_ah
    nat = Nat()
    ctx = nat.handle(pkt)
    assert ctx.dropped and nat.errors == 1
    assert bytes(pkt.buf) == before


@pytest.mark.parametrize("chain", [["nat", "monitor"],
                                   ["monitor", "nat", "loadbalancer"]])
def test_functional_plane_and_sequential_agree_on_short_ihl(chain):
    def frames():
        good = [build_packet(src_port=5000 + i, size=96, identification=i)
                for i in range(3)]
        return [good[0], _short_ihl_frame(2), good[1], _short_ihl_frame(4),
                good[2]]

    plane = FunctionalDataplane(compile_policy(Policy.from_chain(chain)).graph)
    sequential = SequentialReference([create_nf(kind) for kind in chain])
    got = [plane.process(pkt) for pkt in frames()]
    want = [sequential.process(pkt) for pkt in frames()]
    assert [None if out is None else bytes(out.buf) for out in got] == [
        None if out is None else bytes(out.buf) for out in want]
    assert [out is None for out in got] == [False, True, False, True, False]
