"""``Packet.flow_key``: one flow, 13 bytes, over every frame the NFs meet.

The RSS split, the classifier, the flow cache, the load balancer, the
monitor and the control plane used to key a flow five ways, the RSS
input being ``repr()`` of a tuple of dotted-quad strings.  They all key
on ``Packet.flow_key()`` now: ``sip | dip | proto | sport | dport``,
ports 0 on a fragment and on non-TCP/UDP traffic.  What is held here is
not a hash value but the key's meaning.  Over TCP, UDP, ICMP,
802.1Q-tagged, AH-wrapped, fragmented and non-IPv4 frames, cut at every
prefix length: a frame yields exactly 13 bytes or raises ``ValueError``;
an unfragmented frame's key is its ``five_tuple()``, so two such frames
share a key iff the tuples the old spelling
(``tests/support/flowkey_reference.py``) keyed them on are equal; every
fragment of one datagram shares the datagram's key; and a recorder
hears the addresses, then the ports only when they were read.
``Packet.port_key()``, the key port policy reads, is held the same way,
except that a first fragment keeps its ports.  The kernel's digest, the
load balancer's backend and the monitor's table follow from the key.
"""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.flowsplit import key_digest, packet_key
from repro.net import (
    PROTO_TCP,
    PROTO_UDP,
    Field,
    Packet,
    build_packet,
    insert_ah,
    insert_vlan,
    int_to_ip,
)
from repro.net.packet import FLOW_KEY, decode_flow_key, encode_flow_key
from repro.net.recorder import AccessRecorder
from repro.nfs.loadbalancer import LoadBalancer
from repro.nfs.monitor import Monitor
from tests.support import flowkey_reference as ref

PROTO_ICMP = 1
FRAGMENT_WORDS = [0x0000, 0x4000, 0x2000, 0x0001, 0x1FFF, 0x3FFF, 0x8000]
#: Flag words with no fragment bits: DF, the reserved bit, none.
WHOLE_WORDS = [0x0000, 0x4000, 0x8000]
ETHERTYPES = [0x0800] * 5 + [0x86DD, 0x0806]
#: Few addresses and ports, so two drawn frames often share a flow.
ADDRESSES = ["10.0.0.1", "10.0.0.2", "192.168.7.9"]
PORTS = [0, 80, 443, 0x5000]


@st.composite
def stacks(draw, fragments=True, pool=False):
    """A well-formed frame the NFs could meet, then broken a little.

    TCP / UDP / ICMP x {untagged, 802.1Q} x {no AH, AH} x fragment bits
    x IHL 5-7 x an occasional non-IPv4 ethertype.  ``pool`` draws the
    addresses and ports from a few values, so flows repeat.
    """
    proto = draw(st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP]))
    if pool:
        addresses = st.sampled_from(ADDRESSES)
        ports = st.sampled_from(PORTS)
    else:
        addresses = st.integers(0, 0xFFFFFFFF).map(int_to_ip)
        ports = st.integers(0, 0xFFFF)
    pkt = build_packet(
        src_ip=draw(addresses),
        dst_ip=draw(addresses),
        src_port=draw(ports),
        dst_port=draw(ports),
        protocol=PROTO_UDP if proto == PROTO_UDP else PROTO_TCP,
        payload=draw(st.binary(max_size=24)),
    )
    ip = pkt.ipv4
    if proto == PROTO_ICMP:
        ip.protocol = PROTO_ICMP
    frag = draw(st.sampled_from(FRAGMENT_WORDS if fragments else WHOLE_WORDS))
    pkt.buf[20], pkt.buf[21] = frag >> 8, frag & 0xFF
    pkt.buf[14] = 0x40 | draw(st.sampled_from([5, 5, 5, 6, 7]))
    if draw(st.booleans()):
        insert_ah(pkt, spi=7, seq=1, icv_key=bytes(16))
    if draw(st.booleans()):
        insert_vlan(pkt, draw(st.integers(0, 0xFFF)))
    ethertype = draw(st.sampled_from(ETHERTYPES))
    at = pkt.l3_offset - 2
    pkt.buf[at], pkt.buf[at + 1] = ethertype >> 8, ethertype & 0xFF
    return bytes(pkt.buf)


def _outcome(func, *args):
    """("ok", value) or ("raise", (type, message)) of one call."""
    try:
        return ("ok", func(*args))
    except Exception as exc:  # noqa: BLE001 - type and words are compared
        return ("raise", (type(exc), str(exc)))


def _recorded(read, pkt, in_scope):
    """The outcome of ``read()`` and the reads a recorder heard."""
    rec = AccessRecorder()
    pkt.recorder = rec
    if in_scope:
        rec.enter("nf0", "monitor")
    try:
        result = _outcome(read)
    finally:
        rec.exit()
        pkt.recorder = None
    return result, [(e.nf_name, e.verb, e.field, e.packet_uid) for e in rec.events]


class _Counts:
    """A telemetry hub that remembers what it was told."""

    enabled = True

    def __init__(self):
        self.counts = {}

    def inc(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n


def _prefixes(buf):
    for cut in range(len(buf) + 1):
        yield Packet(bytearray(buf[:cut]))


def _is_fragment(pkt):
    buf, l3 = pkt.buf, pkt.l3_offset
    return bool(buf[l3 + 6] & 0x3F or buf[l3 + 7])


def _is_later_fragment(pkt):
    """A fragment past the first: a non-zero offset, MF aside."""
    buf, l3 = pkt.buf, pkt.l3_offset
    return bool(buf[l3 + 6] & 0x1F or buf[l3 + 7])


def _datagram_tuple(pkt, portless=_is_fragment):
    """The datagram's five-tuple, ports 0 on a fragment (on one past the
    first, for ``portless=_is_later_fragment``): the old spelling's
    tuple, with the fragment rule applied."""
    proto = pkt.l4_protocol  # raises until the whole IPv4 header is there
    if portless(pkt):
        ip = pkt.ipv4
        return (ip.src_ip, ip.dst_ip, proto, 0, 0)
    return pkt.five_tuple()


def _heard(pkt, key, portless):
    """What a recorder should hear of a read that returned ``key``: the
    addresses, then the ports only when there were ports to read."""
    if key is None:
        return []
    _, _, proto, _, _ = FLOW_KEY.unpack(key)
    ported = proto in (PROTO_TCP, PROTO_UDP) and not portless(pkt)
    fields = [Field.SIP, Field.DIP] + ([Field.SPORT, Field.DPORT] if ported else [])
    return [("nf0", "read", field, pkt.uid) for field in fields]


def _check_key_at_every_prefix(read, portless, buf, in_scope):
    for pkt in _prefixes(buf):
        (verdict, value), events = _recorded(lambda: read(pkt), pkt, in_scope)
        if verdict == "raise":
            assert value[0] is ValueError
            key = None
        else:
            key = value
            assert type(key) is bytes and len(key) == 13
            assert decode_flow_key(key) == _datagram_tuple(pkt, portless)
            if not portless(pkt):
                assert key == encode_flow_key(pkt.five_tuple())
        if in_scope:
            assert events == _heard(pkt, key, portless)


@settings(max_examples=150, deadline=None)
@given(buf=stacks(), in_scope=st.booleans())
def test_flow_key_is_the_five_tuple_at_every_prefix(buf, in_scope):
    _check_key_at_every_prefix(Packet.flow_key, _is_fragment, buf, in_scope)


@settings(max_examples=150, deadline=None)
@given(buf=stacks(), in_scope=st.booleans())
def test_port_key_keeps_a_first_fragments_ports_at_every_prefix(buf, in_scope):
    _check_key_at_every_prefix(Packet.port_key, _is_later_fragment, buf,
                               in_scope)


@settings(max_examples=100, deadline=None)
@given(frames=st.lists(stacks(fragments=False, pool=True), min_size=2,
                       max_size=8))
def test_two_frames_share_a_key_iff_their_five_tuples_are_equal(frames):
    keyed = []
    for buf in frames:
        pkt = Packet(bytearray(buf))
        try:
            key = pkt.flow_key()
        except ValueError:
            assert ref.flow_key(pkt) is None
            continue
        # The old spelling keyed only TCP/UDP; a portless frame (ICMP)
        # is its addresses and protocol, ports 0.
        ip = pkt.ipv4
        keyed.append((key, ref.flow_key(pkt)
                      or (ip.src_ip, ip.dst_ip, pkt.l4_protocol, 0, 0)))
    for key_a, five_a in keyed:
        for key_b, five_b in keyed:
            assert (key_a == key_b) == (five_a == five_b)


@settings(max_examples=100, deadline=None)
@given(buf=stacks(), words=st.lists(st.sampled_from(FRAGMENT_WORDS[2:6]),
                                    min_size=1, max_size=4),
       junk=st.binary(min_size=4, max_size=4))
def test_fragments_of_one_datagram_share_a_key(buf, words, junk):
    first = Packet(bytearray(buf))
    try:
        l3, _, l4 = first._resolve()
    except ValueError:
        return
    datagram = []
    for word in words:
        # The same datagram's other fragments: other offset / MF bits,
        # and payload bytes where the first fragment had its ports.
        frag = Packet(bytearray(buf))
        frag.buf[l3 + 6], frag.buf[l3 + 7] = word >> 8, word & 0xFF
        frag.buf[l4 : l4 + 4] = junk
        datagram.append(frag)
    keys = {packet_key(frag) for frag in datagram}
    assert len(keys) == 1
    (key,) = keys
    assert key is not None and key[9:] == bytes(4)
    if _is_fragment(first):
        assert packet_key(first) == key


@settings(max_examples=150, deadline=None)
@given(buf=stacks())
def test_kernel_digest_is_the_tuple_digest_at_every_prefix(buf):
    for pkt in _prefixes(buf):
        counts = _Counts()
        digest = key_digest(packet_key(pkt), counts)
        try:
            five = _datagram_tuple(pkt)
        except ValueError:
            assert digest == 0 and counts.counts == {"rss.pinned_flows": 1}
            continue
        assert digest == zlib.crc32(encode_flow_key(five))
        assert counts.counts == {}
    nil = Packet(bytearray(buf)).make_nil()
    assert packet_key(nil) is None and key_digest(None) == 0


def _datagram_backend(names, pkt):
    """The backend of the datagram's tuple: a fragment hashes on
    ``(sip, dip, proto, 0, 0)``, whatever its bytes at the L4 offset are,
    and however few."""
    return names[zlib.crc32(encode_flow_key(_datagram_tuple(pkt))) % len(names)]


@settings(max_examples=150, deadline=None)
@given(buf=stacks(), backends=st.integers(1, 9))
def test_backend_choice_matches_on_unfragmented_frames(buf, backends):
    names = [f"172.16.0.{i}" for i in range(1, backends + 1)]
    lb = LoadBalancer(backends=names)
    for pkt in _prefixes(buf):
        got = _outcome(lb.pick_backend, pkt)
        want = _outcome(_datagram_backend, names, pkt)
        assert got == want
        # Once the header walk succeeds the whole IPv4 header is there.
        if _outcome(lambda: pkt.l4_protocol)[0] == "ok" and _is_fragment(pkt):
            _, events = _recorded(lambda: lb.pick_backend(pkt), pkt, True)
            assert [field for _, _, field, _ in events] == [Field.SIP, Field.DIP]


@settings(max_examples=60, deadline=None)
@given(frames=st.lists(stacks(), min_size=1, max_size=12))
def test_monitor_counts_what_the_hash_keyed_table_counted(frames):
    # Every fragment counts under its datagram's tuple, ports 0.
    monitor, reference = Monitor(), ref.HashKeyedMonitor(_datagram_tuple)
    for buf in frames + frames[:3]:
        for nf, process in ((monitor, monitor.handle),
                            (reference, reference.process)):
            try:
                process(Packet(bytearray(buf)))
            except ValueError:
                assert nf is reference  # handle() catches, process raises
    want = reference.table()
    got = {five: (stats.packets, stats.bytes)
           for five, stats in monitor.top_flows(len(want) + 1)}
    assert got == want
    for five, (packets, _) in want.items():
        assert monitor.stats_for(five).packets == packets


@pytest.mark.parametrize("proto", [PROTO_TCP, PROTO_UDP])
def test_rewrite_with_and_without_a_recorder_is_the_same_frame(proto):
    lb = LoadBalancer()
    plain = build_packet(protocol=proto, src_port=4000, size=80, identification=7)
    recorded = build_packet(protocol=proto, src_port=4000, size=80, identification=7)
    recorded.recorder = AccessRecorder()
    lb.handle(plain)
    lb.handle(recorded)
    assert bytes(plain.buf) == bytes(recorded.buf)
    assert plain.ipv4.verify_checksum()
    assert plain.ipv4.src_ip == lb.vip and plain.ipv4.dst_ip in lb.backends
    writes = [e.field for e in recorded.recorder.events if e.verb == "write"]
    assert writes == [Field.DIP, Field.SIP]
