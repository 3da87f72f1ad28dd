"""Property-based tests for the NSH inter-server shim (hypothesis).

The shim is the only thing that crosses a link in a partitioned graph,
so its encode/decode must be lossless: whatever (path id, index,
metadata word) goes in must come out, the payload must be untouched,
and detection (``has_nsh``) must never misfire on truncated or garbage
frames.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.multiserver.nsh import (
    ETHERTYPE_NSH,
    NSH_LEN,
    NshTag,
    decapsulate,
    encapsulate,
    has_nsh,
)
from repro.net import PacketMeta, build_packet
from repro.net.headers import ETH_HEADER_LEN
from repro.net.packet import Packet

mids = st.integers(min_value=0, max_value=(1 << PacketMeta.MID_BITS) - 1)
pids = st.integers(min_value=0, max_value=(1 << PacketMeta.PID_BITS) - 1)
versions = st.integers(min_value=0, max_value=(1 << PacketMeta.VERSION_BITS) - 1)
path_ids = st.integers(min_value=0, max_value=0xFFFFFFFF)
indices = st.integers(min_value=0, max_value=0xFF)
sizes = st.integers(min_value=64, max_value=1500)


@given(mid=mids, pid=pids, version=versions, path_id=path_ids,
       index=indices, size=sizes)
def test_encap_decap_roundtrip(mid, pid, version, path_id, index, size):
    pkt = build_packet(size=size)
    original = bytes(pkt.buf)
    original_wire = pkt.wire_len
    tag = NshTag(path_id, index, PacketMeta(mid, pid, version))

    encapsulate(pkt, tag)
    assert has_nsh(pkt)
    assert pkt.buf[ETH_HEADER_LEN + 2] == 0  # the flags byte
    assert pkt.wire_len == original_wire + NSH_LEN
    assert len(pkt.buf) == len(original) + NSH_LEN

    received = decapsulate(pkt)
    assert received == tag
    assert received.path_id == path_id
    assert received.index == index
    # The 64-bit metadata word survives bit-exactly.
    assert received.meta.mid == mid
    assert received.meta.pid == pid
    assert received.meta.version == version
    # And the decapsulated packet adopts it.
    assert pkt.meta == PacketMeta(mid, pid, version)
    # The frame is byte-identical to what went in.
    assert bytes(pkt.buf) == original
    assert pkt.wire_len == original_wire
    assert not has_nsh(pkt)


@given(mid=mids, pid=pids, version=versions)
def test_metadata_word_roundtrip(mid, pid, version):
    meta = PacketMeta(mid, pid, version)
    assert PacketMeta.unpack(meta.pack()) == meta


@given(size=sizes)
def test_double_encap_rejected(size):
    pkt = build_packet(size=size)
    tag = NshTag(1, 1, PacketMeta(1, 1, 1))
    encapsulate(pkt, tag)
    try:
        encapsulate(pkt, tag)
    except ValueError:
        pass
    else:
        raise AssertionError("double encapsulation must be rejected")


@given(size=sizes)
def test_decap_untagged_rejected(size):
    pkt = build_packet(size=size)
    assert not has_nsh(pkt)
    try:
        decapsulate(pkt)
    except ValueError:
        pass
    else:
        raise AssertionError("decapsulating an untagged frame must fail")


@given(length=st.integers(min_value=0, max_value=13))
def test_has_nsh_truncated_frames(length):
    # Shorter than an Ethernet header: never detected, never crashes.
    pkt = Packet(bytearray(length), wire_len=max(length, 1))
    assert not has_nsh(pkt)


@given(payload=st.binary(min_size=14, max_size=64))
def test_has_nsh_garbage_frames(payload):
    pkt = Packet(bytearray(payload), wire_len=len(payload))
    detected = has_nsh(pkt)
    # Detection is exactly the ethertype check -- no false positives on
    # frames whose ethertype bytes are not the NSH magic value.
    ethertype = int.from_bytes(payload[12:14], "big")
    assert detected == (ethertype == ETHERTYPE_NSH)
    if not detected:
        try:
            decapsulate(pkt)
        except ValueError:
            pass
        else:
            raise AssertionError("garbage frame decapsulated")
