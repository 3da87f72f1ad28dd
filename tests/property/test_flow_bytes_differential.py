"""``Packet.flow_bytes`` against the tuple-then-``repr`` key it replaced.

The RSS split, the load balancer and the monitor used to build the
five-tuple's strings and tuple, then hash ``repr(tuple).encode()``;
they now read those bytes from the frame in one ``bytes % (...)``.
``tests/support/flowkey_reference.py`` keeps the old code.  Over TCP,
UDP, ICMP, 802.1Q-tagged, AH-wrapped, fragmented and non-IPv4 frames,
cut at every prefix length: the bytes are ``repr(five_tuple()).encode()``,
the refusals carry the same words, a recorder hears the same reads, the
kernel's digest is ``flow_digest(flow_key(pkt))``, the load balancer
picks the old backend for every unfragmented frame and hashes a
fragment on ``(sip, dip, proto, 0, 0)``, and the monitor counts what
the hash-keyed table counted.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.flowsplit import flow_digest, packet_digest
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
from repro.net.recorder import AccessRecorder
from repro.nfs.loadbalancer import LoadBalancer
from repro.nfs.monitor import Monitor
from tests.support import flowkey_reference as ref

PROTO_ICMP = 1
FRAGMENT_WORDS = [0x0000, 0x4000, 0x2000, 0x0001, 0x1FFF, 0x3FFF, 0x8000]
ETHERTYPES = [0x0800] * 5 + [0x86DD, 0x0806]


@st.composite
def stacks(draw):
    """A well-formed frame the NFs could meet, then broken a little.

    TCP / UDP / ICMP x {untagged, 802.1Q} x {no AH, AH} x fragment bits
    x IHL 5-7 x an occasional non-IPv4 ethertype.
    """
    proto = draw(st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP]))
    pkt = build_packet(
        src_ip=int_to_ip(draw(st.integers(0, 0xFFFFFFFF))),
        dst_ip=int_to_ip(draw(st.integers(0, 0xFFFFFFFF))),
        src_port=draw(st.integers(0, 0xFFFF)),
        dst_port=draw(st.integers(0, 0xFFFF)),
        protocol=PROTO_UDP if proto == PROTO_UDP else PROTO_TCP,
        payload=draw(st.binary(max_size=24)),
    )
    ip = pkt.ipv4
    if proto == PROTO_ICMP:
        ip.protocol = PROTO_ICMP
    frag = draw(st.sampled_from(FRAGMENT_WORDS))
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


@settings(max_examples=150, deadline=None)
@given(buf=stacks(), in_scope=st.booleans())
def test_flow_bytes_is_the_repr_of_the_five_tuple_at_every_prefix(buf, in_scope):
    for pkt in _prefixes(buf):
        got = _recorded(pkt.flow_bytes, pkt, in_scope)
        want = _recorded(lambda: repr(pkt.five_tuple()).encode(), pkt, in_scope)
        assert got == want
        if got[0][0] == "raise":
            assert got[0][1][0] is ValueError


@settings(max_examples=150, deadline=None)
@given(buf=stacks())
def test_kernel_digest_is_the_tuple_digest_at_every_prefix(buf):
    for pkt in _prefixes(buf):
        ours, theirs = _Counts(), _Counts()
        assert packet_digest(pkt, ours) == flow_digest(ref.flow_key(pkt), theirs)
        assert ours.counts == theirs.counts
    nil = Packet(bytearray(buf)).make_nil()
    assert packet_digest(nil) == flow_digest(ref.flow_key(nil)) == 0


def _datagram_backend(names, pkt):
    """A fragment's backend: the hash of ``(sip, dip, proto, 0, 0)``,
    whatever its bytes at the L4 offset are, and however few."""
    proto = pkt.l4_protocol
    ip = pkt.ipv4
    return names[ref.ecmp_hash((ip.src_ip, ip.dst_ip, proto, 0, 0)) % len(names)]


@settings(max_examples=150, deadline=None)
@given(buf=stacks(), backends=st.integers(1, 9))
def test_backend_choice_matches_on_unfragmented_frames(buf, backends):
    names = [f"172.16.0.{i}" for i in range(1, backends + 1)]
    lb = LoadBalancer(backends=names)
    for pkt in _prefixes(buf):
        got = _outcome(lb.pick_backend, pkt)
        # Once the header walk succeeds the whole IPv4 header is there.
        if _outcome(lambda: pkt.l4_protocol)[0] == "ok" and _is_fragment(pkt):
            want = _outcome(_datagram_backend, names, pkt)
            reads = [Field.SIP, Field.DIP]
        else:
            want = _outcome(ref.pick_backend, names, pkt)
            reads = None
        assert got == want
        if reads is not None:
            _, events = _recorded(lambda: lb.pick_backend(pkt), pkt, True)
            assert [field for _, _, field, _ in events] == reads


@settings(max_examples=60, deadline=None)
@given(frames=st.lists(stacks(), min_size=1, max_size=12))
def test_monitor_counts_what_the_hash_keyed_table_counted(frames):
    monitor, reference = Monitor(), ref.HashKeyedMonitor()
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
