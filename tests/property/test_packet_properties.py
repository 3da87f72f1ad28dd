"""Property-based tests for the packet substrate (hypothesis)."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import MergeOp, MergeOpKind
from repro.dataplane.merging import apply_merge_ops
from repro.net import (
    HEADER_COPY_BYTES,
    PROTO_AH,
    PROTO_TCP,
    PROTO_UDP,
    AhView,
    Field,
    Packet,
    PacketMeta,
    build_packet,
    compute_icv,
    insert_ah,
    insert_vlan,
    int_to_ip,
    internet_checksum,
    ip_to_int,
    read_field,
)
from repro.net.recorder import AccessRecorder
from tests.support import packet_reference as ref

ips = st.integers(min_value=0, max_value=0xFFFFFFFF).map(int_to_ip)
ports = st.integers(min_value=0, max_value=0xFFFF)
sizes = st.integers(min_value=64, max_value=1500)


@given(value=st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_ip_int_roundtrip(value):
    assert ip_to_int(int_to_ip(value)) == value


@given(src=ips, dst=ips, sport=ports, dport=ports, size=sizes,
       proto=st.sampled_from([PROTO_TCP, PROTO_UDP]))
def test_build_packet_fields_roundtrip(src, dst, sport, dport, size, proto):
    pkt = build_packet(src_ip=src, dst_ip=dst, src_port=sport,
                       dst_port=dport, size=size, protocol=proto)
    assert len(pkt.buf) == size
    assert pkt.five_tuple() == (src, dst, proto, sport, dport)
    assert pkt.ipv4.verify_checksum()
    assert pkt.ipv4.total_length == size - 14


@given(size=sizes, payload=st.binary(max_size=32))
def test_payload_roundtrip(size, payload):
    if size < 54 + len(payload):
        size = 54 + len(payload)
    pkt = build_packet(size=size, payload=payload)
    assert pkt.payload[: len(payload)] == payload


@given(size=sizes)
def test_full_copy_preserves_bytes_and_isolates(size):
    pkt = build_packet(size=size)
    pkt.meta = PacketMeta(mid=1, pid=1, version=1)
    copy = pkt.full_copy(2)
    assert bytes(copy.buf) == bytes(pkt.buf)
    copy.ipv4.ttl = 1
    copy.ipv4.update_checksum()
    assert pkt.ipv4.ttl != 1 or pkt.ipv4.ttl == 1 and size == 0  # isolation
    assert bytes(copy.buf) != bytes(pkt.buf)


@given(size=sizes)
def test_header_copy_invariants(size):
    pkt = build_packet(size=size)
    pkt.meta = PacketMeta(mid=1, pid=1, version=1)
    copy = pkt.header_copy(2)
    assert len(copy.buf) == min(size, HEADER_COPY_BYTES)
    assert copy.wire_len == size
    assert copy.meta.version == 2
    # The 4-tuple survives header-only copying.
    assert copy.five_tuple() == pkt.five_tuple()


@given(mid=st.integers(0, (1 << 20) - 1),
       pid=st.integers(0, (1 << 40) - 1),
       version=st.integers(0, 15))
def test_meta_pack_unpack(mid, pid, version):
    meta = PacketMeta(mid, pid, version)
    assert PacketMeta.unpack(meta.pack()) == meta


@settings(max_examples=30)
@given(size=sizes, ttl=st.integers(1, 255), dscp=st.integers(0, 63))
def test_checksum_update_always_verifies(size, ttl, dscp):
    pkt = build_packet(size=size, ttl=ttl)
    pkt.ipv4.dscp = dscp
    pkt.ipv4.update_checksum()
    assert pkt.ipv4.verify_checksum()


# ---------------------------------------------------------------------------
# The single-pass resolver against the view-chain parse it replaced
# (tests/support/packet_reference.py): same value or same exception type,
# and the only exception a frame may provoke is ValueError -- that is all
# NetworkFunction.handle's callers, packet_key, has_ah and the merge skip
# catch.
# ---------------------------------------------------------------------------

PROTOCOLS = [PROTO_TCP, PROTO_UDP, 1, 0, PROTO_AH]  # 1 = ICMP
ETHERTYPES = [0x0800] * 6 + [0x0806, 0x86DD, 0x8100, 0x88A8, 0x0000]
FRAGMENT_WORDS = [0x0000, 0x4000, 0x2000, 0x0001, 0x1FFF, 0x3FFF, 0x8000]
NIBBLES = list(range(16))
BODY_LENGTHS = list(range(151))


@st.composite
def frames(draw):
    """An Ethernet frame shaped like the stacks the NFs build and break.

    {untagged, 802.1Q} x any ethertype x IHL 0-15 x fragment bits x
    {TCP with any data offset, UDP, ICMP, protocol 0} x {no AH, AH (also
    nested)}, over random bytes, so every structural byte the resolver
    reads takes interesting values wherever it happens to land.
    """
    vlan = draw(st.booleans())
    ethertype = draw(st.sampled_from(ETHERTYPES))
    ihl = draw(st.sampled_from(NIBBLES))
    proto = draw(st.sampled_from(PROTOCOLS))
    inner = draw(st.sampled_from(PROTOCOLS))
    data_offset = draw(st.sampled_from(NIBBLES))
    frag = draw(st.sampled_from(FRAGMENT_WORDS))
    # Drawn as a length first, uniformly: st.binary and st.integers skew
    # small and would rarely reach past the IPv4 header.
    body_len = draw(st.sampled_from(BODY_LENGTHS))
    body = draw(st.binary(min_size=body_len, max_size=body_len))

    buf = bytearray(draw(st.binary(min_size=12, max_size=12)))
    if vlan:
        buf += bytes([0x81, 0x00]) + draw(st.binary(min_size=2, max_size=2))
    buf += bytes([ethertype >> 8, ethertype & 0xFF])
    l3 = len(buf)
    buf += draw(st.binary(min_size=20, max_size=20)) + body
    buf[l3] = 0x40 | ihl
    buf[l3 + 6] = frag >> 8
    buf[l3 + 7] = frag & 0xFF
    buf[l3 + 9] = proto
    l4 = l3 + ihl * 4
    if proto == PROTO_AH:
        if l4 < len(buf):
            buf[l4] = inner
        l4 += 24
    if l4 + 12 < len(buf):
        buf[l4 + 12] = (data_offset << 4) | (buf[l4 + 12] & 0x0F)
    return buf


def _outcome(func, *args):
    """("ok", value) or ("raise", exception type) of one call."""
    try:
        return ("ok", func(*args))
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return ("raise", type(exc))


def _agree(got, want):
    assert got == want
    if got[0] == "raise":
        assert got[1] is ValueError


def _prefixes(buf):
    """A packet over every prefix of ``buf``, the empty one included."""
    for cut in range(len(buf) + 1):
        yield Packet(bytearray(buf[:cut]))


@settings(max_examples=120, deadline=None)
@given(buf=frames())
def test_resolver_agrees_with_view_chain_at_every_prefix(buf):
    for pkt in _prefixes(buf):
        assert pkt.has_vlan == ref.has_vlan(pkt)
        assert pkt.l3_offset == ref.l3_offset(pkt)
        assert pkt.has_ah == ref.has_ah(pkt)
        _agree(_outcome(lambda: pkt.l4_protocol),
               _outcome(ref.l4_protocol, pkt))
        _agree(_outcome(lambda: pkt.payload_offset),
               _outcome(ref.payload_offset, pkt))
        _agree(_outcome(pkt.five_tuple), _outcome(ref.five_tuple, pkt))
        _agree(_outcome(pkt.flow_key), _outcome(ref.flow_key, pkt))
        _agree(_outcome(pkt.port_key), _outcome(ref.port_key, pkt))
        # The views land on the same bytes (or refuse the same frames).
        for name in ("ipv4", "ah", "tcp", "udp"):
            _agree(_outcome(lambda: getattr(pkt, name).offset),
                   _outcome(lambda: getattr(ref, name)(pkt).offset))


def test_resolver_refuses_nil_packets_like_the_view_chain():
    nil = build_packet().make_nil()
    assert nil.l3_offset == ref.l3_offset(nil) == 14
    assert not nil.has_vlan and not nil.has_ah
    for new, old in ((lambda: nil.l4_protocol, ref.l4_protocol),
                     (lambda: nil.payload_offset, ref.payload_offset),
                     (nil.five_tuple, ref.five_tuple),
                     (nil.flow_key, ref.flow_key),
                     (nil.port_key, ref.port_key)):
        _agree(_outcome(new), _outcome(old, nil))
        assert _outcome(new)[0] == "raise"


@settings(max_examples=100, deadline=None)
@given(buf=frames(), in_scope=st.booleans())
def test_parse_memo_answers_like_the_view_chain_at_every_prefix(buf, in_scope):
    """``parse``, the classifier's one walk: its key is ``flow_key``'s
    (``None`` where that raises), and on the parsed packet and on both
    copies it hands its memo to, every question the memo answers agrees
    with the view chain -- the value or ``ValueError`` -- and a recorder
    hears the reads an unparsed packet's walk makes."""
    for pkt in _prefixes(buf):
        key = pkt.parse()
        want = _outcome(ref.flow_key, pkt)
        assert key == (want[1] if want[0] == "ok" else None)
        _agree(_outcome(lambda: _copy_facts(pkt.header_copy(3))),
               _outcome(lambda: _copy_facts(ref.header_copy(pkt, 3))))
        for probe in (pkt, pkt.full_copy(2), pkt.header_copy(3)):
            _agree(_outcome(lambda: probe.l4_protocol),
                   _outcome(ref.l4_protocol, probe))
            _agree(_outcome(lambda: probe.payload_offset),
                   _outcome(ref.payload_offset, probe))
            for name in ("ipv4", "ah", "tcp", "udp"):
                _agree(_outcome(lambda: getattr(probe, name).offset),
                       _outcome(lambda: getattr(ref, name)(probe).offset))
            for name in ("flow_key", "port_key", "five_tuple"):
                got = _five_tuple_events(getattr(probe, name), probe, in_scope)
                _agree(got[0], _outcome(getattr(ref, name), probe))
                walked = Packet(bytearray(probe.buf))
                assert got == _five_tuple_events(getattr(walked, name),
                                                 walked, in_scope)


def _copy_facts(copy):
    return (bytes(copy.buf), copy.wire_len, copy.meta, copy.is_header_copy,
            copy.ingress_us, copy.nil, copy.recorder)


@settings(max_examples=80, deadline=None)
@given(buf=frames(), nbytes=st.sampled_from([64, 0, 20, 38, 200]),
       tagged=st.booleans())
def test_header_copy_agrees_with_view_chain_at_every_prefix(buf, nbytes, tagged):
    for pkt in _prefixes(buf):
        pkt.wire_len = len(buf)
        pkt.ingress_us = 12.5
        pkt.meta = PacketMeta(mid=3, pid=9, version=1) if tagged else None
        got = _outcome(lambda: _copy_facts(pkt.header_copy(4, nbytes)))
        want = _outcome(lambda: _copy_facts(ref.header_copy(pkt, 4, nbytes)))
        _agree(got, want)
        assert got[0] == "ok"
        if tagged:
            assert got[1][2] == PacketMeta(mid=3, pid=9, version=4)


@pytest.mark.parametrize("vlan", [False, True])
@pytest.mark.parametrize("with_ah", [False, True])
def test_header_copy_covers_stacks_taller_than_64_bytes(vlan, with_ah):
    # Eth 14 (+4) + IPv4 20 (+AH 24) + TCP with data offset 15 (60 B).
    pkt = build_packet(size=400, payload=bytes(range(200)))
    pkt.buf[14 + 20 + 12] = 15 << 4
    if with_ah:
        insert_ah(pkt, spi=7, seq=1, icv_key=bytes(16))
    if vlan:
        insert_vlan(pkt, 5)
    assert pkt.payload_offset == ref.payload_offset(pkt) > HEADER_COPY_BYTES
    copy, want = pkt.header_copy(2), ref.header_copy(pkt, 2)
    assert _copy_facts(copy) == _copy_facts(want)
    assert len(copy.buf) == pkt.payload_offset
    assert copy.ipv4.total_length == len(copy.buf) - copy.l3_offset


def test_header_copy_inherits_the_recorder_and_logs_one_event():
    events = []
    for make_copy in (lambda p: p.header_copy(2),
                      lambda p: ref.header_copy(p, 2)):
        rec = AccessRecorder()
        pkt = build_packet(size=200)
        pkt.recorder = rec
        rec.enter("nf0", "monitor")
        copy = make_copy(pkt)
        rec.exit()
        assert copy.recorder is rec
        assert [e.packet_uid for e in rec.events] == [pkt.uid]
        events.append([(e.nf_name, e.verb, e.field) for e in rec.events])
    assert events[0] == events[1] == [("nf0", "copy-header", None)]


def _five_tuple_events(read, pkt, in_scope):
    rec = AccessRecorder()
    pkt.recorder = rec
    if in_scope:
        rec.enter("nf0", "monitor")
    try:
        result = _outcome(read)
    finally:
        rec.exit()
        pkt.recorder = None
    assert all(e.packet_uid == pkt.uid for e in rec.events)
    return result, [(e.nf_name, e.verb, e.field) for e in rec.events]


@settings(max_examples=80, deadline=None)
@given(buf=frames(), in_scope=st.booleans())
def test_five_tuple_records_what_the_view_chain_recorded(buf, in_scope):
    pkt = Packet(buf)
    got = _five_tuple_events(pkt.five_tuple, pkt, in_scope)
    want = _five_tuple_events(lambda: ref.five_tuple(pkt), pkt, in_scope)
    assert got == want
    if not in_scope or got[0][0] == "raise":
        assert got[1] == []


def test_five_tuple_read_order_is_addresses_then_ports():
    pkt = build_packet(protocol=PROTO_UDP)
    _, events = _five_tuple_events(pkt.five_tuple, pkt, in_scope=True)
    assert [field for _, _, field in events] == [
        Field.SIP, Field.DIP, Field.SPORT, Field.DPORT]
    pkt.ipv4.protocol = 1  # ICMP: no ports to read
    _, events = _five_tuple_events(pkt.five_tuple, pkt, in_scope=True)
    assert [field for _, _, field in events] == [Field.SIP, Field.DIP]


def test_recorder_armed_packets_still_get_recording_views():
    pkt = build_packet()
    pkt.recorder = AccessRecorder()
    assert type(pkt.eth).__name__ == "RecordingEthernetView"
    assert type(pkt.ipv4).__name__ == "RecordingIpv4View"
    assert type(pkt.tcp).__name__ == "RecordingTcpView"
    udp = build_packet(protocol=PROTO_UDP)
    assert type(udp.udp).__name__ == "UdpView"  # unarmed: the plain view
    udp.recorder = pkt.recorder
    assert type(udp.udp).__name__ == "RecordingUdpView"


# ------------------------------------------------------------------ checksum
RFC1071_EXAMPLE = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])


def test_internet_checksum_rfc1071_example():
    # RFC 1071 section 3: the words sum to 0xDDF2 after the end-around carry.
    assert internet_checksum(RFC1071_EXAMPLE) == 0xFFFF - 0xDDF2
    assert ref.internet_checksum(RFC1071_EXAMPLE) == 0xFFFF - 0xDDF2


@pytest.mark.parametrize("length", list(range(65)) + [1499, 1500])
def test_internet_checksum_matches_byte_loop_on_edge_patterns(length):
    patterns = [bytes(length), b"\xff" * length,
                bytes((i * 37 + 11) & 0xFF for i in range(length)),
                (b"\xff\xfe" * length)[:length]]
    for data in patterns:
        assert internet_checksum(data) == ref.internet_checksum(data)
        assert internet_checksum(bytearray(data)) == ref.internet_checksum(data)


@given(data=st.binary(max_size=96))
def test_internet_checksum_matches_byte_loop(data):
    assert internet_checksum(data) == ref.internet_checksum(data)


@given(src=ips, dst=ips, size=sizes, ttl=st.integers(0, 255),
       proto=st.sampled_from([PROTO_TCP, PROTO_UDP]))
def test_every_built_packet_verifies_under_both_checksums(src, dst, size, ttl, proto):
    pkt = build_packet(src_ip=src, dst_ip=dst, size=size, ttl=ttl, protocol=proto)
    assert pkt.ipv4.verify_checksum()
    assert ref.internet_checksum(bytes(pkt.buf[14:34])) == 0


# ------------------------------------------------------------- merge modify
VALUE_FIELDS = [Field.SIP, Field.DIP, Field.SPORT, Field.DPORT, Field.TTL,
                Field.DSCP, Field.PAYLOAD, Field.SMAC, Field.DMAC]


def _merge_modify(base, source, field):
    return apply_merge_ops({1: base, 2: source},
                           [MergeOp(MergeOpKind.MODIFY, field, 2)])


def _reference_modify(base, source, field):
    """The parent's MODIFY branch plus its checksum fix-up."""
    if ref.modify(base, source, field) and field in (
            Field.SIP, Field.DIP, Field.TTL, Field.DSCP):
        ip = ref.ipv4(base)
        ip.checksum = 0
        ip.checksum = ref.internet_checksum(
            bytes(base.buf[ip.offset:ip.offset + ip.header_len]))
    return base


def _modify_agrees(base_buf, source_buf, field):
    base, want_base = Packet(bytearray(base_buf)), Packet(bytearray(base_buf))
    got = _outcome(_merge_modify, base, Packet(bytearray(source_buf)), field)
    want = _outcome(_reference_modify, want_base,
                    Packet(bytearray(source_buf)), field)
    assert got[0] == want[0]
    if got[0] == "raise":
        assert got[1] is want[1] is ValueError
    else:
        assert got[1] is base
    assert bytes(base.buf) == bytes(want_base.buf)
    return got[0]


@settings(max_examples=150, deadline=None)
@given(base=frames(), source=frames(), cut=st.integers(0, 200),
       field=st.sampled_from(list(Field)))
def test_byte_range_modify_matches_value_round_trip(base, source, cut, field):
    _modify_agrees(base, source, field)
    _modify_agrees(base, source[:cut], field)
    _modify_agrees(base[:cut], source, field)


@pytest.mark.parametrize("field", VALUE_FIELDS, ids=str)
@pytest.mark.parametrize("vlan", [False, True], ids=["untagged", "vlan"])
@pytest.mark.parametrize("with_ah", [False, True], ids=["plain", "ah"])
@pytest.mark.parametrize("proto", [PROTO_TCP, PROTO_UDP])
def test_byte_range_modify_on_well_formed_stacks(field, vlan, with_ah, proto):
    def stack(**kwargs):
        pkt = build_packet(size=120, protocol=proto, **kwargs)
        if with_ah:
            insert_ah(pkt, spi=1, seq=2, icv_key=bytes(16))
        if vlan:
            insert_vlan(pkt, 9)
        return pkt

    base = stack(payload=b"base" * 8)
    source = stack(src_ip="172.16.9.1", dst_ip="172.16.9.2", src_port=4242,
                   dst_port=8443, ttl=9, src_mac="02:aa:bb:cc:dd:01",
                   dst_mac="02:aa:bb:cc:dd:02", payload=b"srcs" * 8)
    source.ipv4.dscp = 46
    before = bytes(base.buf)
    assert _modify_agrees(base.buf, source.buf, field) == "ok"
    merged = _merge_modify(Packet(bytearray(base.buf)), source, field)
    assert bytes(merged.buf) != before  # the value really moved
    assert read_field(merged, field) == read_field(source, field)
    assert merged.ipv4.verify_checksum()


def _icmp(pkt):
    pkt.ipv4.protocol = 1
    pkt.ipv4.update_checksum()
    return pkt


@pytest.mark.parametrize("field", [Field.SPORT, Field.DPORT], ids=str)
def test_modify_skips_a_source_without_ports_and_refuses_such_a_base(field):
    tcp = build_packet(src_port=1111, dst_port=2222)
    icmp = _icmp(build_packet())
    # Source cannot parse the field: nothing was written there, skip.
    before = bytes(tcp.buf)
    assert _modify_agrees(tcp.buf, icmp.buf, field) == "ok"
    assert bytes(_merge_modify(tcp, icmp, field).buf) == before
    # Base cannot take it: an inconsistency, not a no-op.
    assert _modify_agrees(icmp.buf, tcp.buf, field) == "raise"
    with pytest.raises(ValueError):
        _merge_modify(icmp, tcp, field)


# ---------------------------------------------------------------- addresses
@given(value=st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_address_helpers_match_the_reference(value):
    text = ref.int_to_ip(value)
    assert int_to_ip(value) == text
    assert ip_to_int(text) == ref.ip_to_int(text) == value


@pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "1.2.3.256", "1.2.3.-1",
                                 "a.b.c.d", "", "1..2.3"])
def test_ip_to_int_rejects_malformed_input_every_time(bad):
    # lru_cache does not remember exceptions: the second call must parse
    # (and refuse) again, not hand back a poisoned entry.
    for _ in range(3):
        assert _outcome(ip_to_int, bad) == _outcome(ref.ip_to_int, bad)
        with pytest.raises(ValueError):
            ip_to_int(bad)
    with pytest.raises(ValueError):
        int_to_ip(1 << 32)
    with pytest.raises(ValueError):
        int_to_ip(-1)


def test_ip_to_int_memo_is_bounded_and_right_past_the_bound():
    ip_to_int.cache_clear()
    bound = ip_to_int.cache_info().maxsize
    assert bound is not None and bound >= 16
    addresses = [ref.int_to_ip(0x0A000000 + i * 257) for i in range(bound + 1)]
    for address in addresses:
        assert ip_to_int(address) == ref.ip_to_int(address)
    info = ip_to_int.cache_info()
    assert info.currsize == bound and info.misses == bound + 1
    # The first address was evicted by the (bound + 1)-th: asking again
    # is a miss that still answers correctly, and the size stays put.
    assert ip_to_int(addresses[0]) == ref.ip_to_int(addresses[0])
    info = ip_to_int.cache_info()
    assert info.currsize == bound and info.misses == bound + 2
    assert ip_to_int(addresses[-1]) == ref.ip_to_int(addresses[-1])
    assert ip_to_int.cache_info().hits == 1


# ---------------------------------------------------------------------------
# What the walk's answers build -- the checksum, the payload, the AH splice
# and the keys -- against the view chain, at every prefix of every frame.
# ---------------------------------------------------------------------------

def _checksummed(pkt):
    pkt.ipv4.update_checksum()
    return bytes(pkt.buf)


def _reference_checksummed(pkt):
    ip = ref.ipv4(pkt)
    ip.checksum = 0
    ip.checksum = ref.internet_checksum(
        bytes(pkt.buf[ip.offset:ip.offset + ip.header_len]))
    return bytes(pkt.buf)


def _reference_verifies(pkt):
    ip = ref.ipv4(pkt)
    return ref.internet_checksum(
        bytes(pkt.buf[ip.offset:ip.offset + ip.header_len])) == 0


@settings(max_examples=80, deadline=None)
@given(buf=frames())
def test_ipv4_checksum_agrees_with_byte_loop_at_every_prefix(buf):
    for cut in range(len(buf) + 1):
        pkt, want = Packet(bytearray(buf[:cut])), Packet(bytearray(buf[:cut]))
        _agree(_outcome(lambda: pkt.ipv4.verify_checksum()),
               _outcome(_reference_verifies, want))
        _agree(_outcome(_checksummed, pkt),
               _outcome(_reference_checksummed, want))
        assert bytes(pkt.buf) == bytes(want.buf)


def _payload_write(pkt, data, write):
    write(pkt, data)
    return bytes(pkt.buf)


@settings(max_examples=80, deadline=None)
@given(buf=frames(), fill=st.integers(0, 255),
       delta=st.sampled_from([0, 0, 1, -1]))
def test_payload_and_set_payload_agree_with_view_chain_at_every_prefix(
        buf, fill, delta):
    for cut in range(len(buf) + 1):
        pkt, want = Packet(bytearray(buf[:cut])), Packet(bytearray(buf[:cut]))
        read = _outcome(lambda: pkt.payload)
        _agree(read, _outcome(ref.read_field, want, Field.PAYLOAD))
        data = bytes([fill]) * max(0, (len(read[1]) if read[0] == "ok"
                                       else cut) + delta)
        _agree(_outcome(_payload_write, pkt, data, Packet.set_payload),
               _outcome(_payload_write, want, data,
                        lambda p, d: ref.write_field(p, Field.PAYLOAD, d)))
        assert bytes(pkt.buf) == bytes(want.buf)


ICV_KEY = bytes(range(16))


def _reference_insert_ah(pkt, spi, seq):
    """``insert_ah`` as it stood on the view chain: every IPv4 field
    through its property, the checksum by the byte loop."""
    ip = ref.ipv4(pkt)
    buf = pkt.buf
    if ip.protocol == PROTO_AH:
        raise ValueError("packet already carries an AH")
    header = struct.pack("!BBHII12x", ip.protocol,
                         AhView.HEADER_LEN // 4 - 2, 0, spi, seq)
    ip_end = ip.offset + ip.header_len
    buf[ip_end:ip_end] = header
    ip.protocol = PROTO_AH
    ip.total_length = ip.total_length + AhView.HEADER_LEN
    scope = buf[ip.offset + 12:ip.offset + 20] + buf[ip_end + AhView.HEADER_LEN:]
    buf[ip_end + 12:ip_end + AhView.HEADER_LEN] = compute_icv(ICV_KEY, scope)
    _reference_checksummed(pkt)
    pkt.wire_len += AhView.HEADER_LEN


def _spliced(insert, pkt, spi, seq):
    insert(pkt, spi, seq)
    return bytes(pkt.buf), pkt.wire_len


@settings(max_examples=80, deadline=None)
@given(buf=frames(), spi=st.integers(0, 0xFFFFFFFF),
       seq=st.integers(0, 0xFFFFFFFF))
def test_insert_ah_agrees_with_view_chain_at_every_prefix(buf, spi, seq):
    def insert(pkt, spi, seq):
        insert_ah(pkt, spi, seq, ICV_KEY)

    for cut in range(len(buf) + 1):
        pkt, want = Packet(bytearray(buf[:cut])), Packet(bytearray(buf[:cut]))
        _agree(_outcome(_spliced, insert, pkt, spi, seq),
               _outcome(_spliced, _reference_insert_ah, want, spi, seq))
        assert bytes(pkt.buf) == bytes(want.buf)


@pytest.mark.parametrize("total_length", [0xFFE7, 0xFFE8, 0xFFFF])
def test_insert_ah_refuses_a_total_length_past_16_bits(total_length):
    # 0xFFE7 + 24 = 0xFFFF still fits; one more does not.
    pkt, want = (build_packet(size=96, identification=1) for _ in "ab")
    for p in (pkt, want):
        p.buf[16:18] = total_length.to_bytes(2, "big")
    got = _outcome(_spliced, lambda p, s, q: insert_ah(p, s, q, ICV_KEY),
                   pkt, 1, 2)
    _agree(got, _outcome(_spliced, _reference_insert_ah, want, 1, 2))
    assert (got[0] == "ok") is (total_length == 0xFFE7)
    assert bytes(pkt.buf) == bytes(want.buf)


@settings(max_examples=80, deadline=None)
@given(buf=frames())
def test_flow_and_port_keys_are_13_bytes_at_every_prefix(buf):
    for pkt in _prefixes(buf):
        for key in (pkt.flow_key, pkt.port_key):
            got = _outcome(key)
            if got[0] == "ok":
                assert type(got[1]) is bytes and len(got[1]) == 13
            else:
                assert got[1] is ValueError
