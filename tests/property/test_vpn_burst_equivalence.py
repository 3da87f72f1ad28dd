"""The VPN's burst path against its own per-packet path.

``VpnEncryptor.handle_burst`` computes every payload's keystream in one
lane pass; ``handle`` encrypts one payload per call.  On fresh
encryptors fed the same frames, both must leave the same bytes, the
same verdicts and counters, and the same recorder events -- for bursts
that mix jumbo frames, empty payloads, frames that do not parse and
frames that already carry an AH.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import AccessRecorder, build_packet, insert_ah
from repro.net.headers import PROTO_TCP, PROTO_UDP
from repro.nfs import vpn as vpn_module
from repro.nfs.vpn import DEFAULT_VPN_KEY, VpnEncryptor

KINDS = ("tcp", "udp", "empty", "non_ipv4", "cut_tcp", "long_offset", "ah")

frame_specs = st.tuples(
    st.sampled_from(KINDS),
    st.one_of(st.integers(54, 1500), st.sampled_from([54, 55, 70, 71, 9000]),
              st.integers(1501, 9000)),
    st.integers(0, 2**32 - 1),
)


def make_frame(spec):
    """One frame from ``(kind, size, seed)``; the same spec gives the same bytes."""
    kind, size, seed = spec
    protocol = PROTO_UDP if kind == "udp" else PROTO_TCP
    header = 42 if protocol == PROTO_UDP else 54
    if kind == "empty":
        size = header
    body = random.Random(seed).randbytes(size - header)
    pkt = build_packet(src_port=1000 + seed % 50000, protocol=protocol,
                       payload=body, identification=seed & 0xFFFF)
    if kind == "non_ipv4":
        pkt.buf[12:14] = b"\x08\x06"  # ARP
    elif kind == "cut_tcp":
        del pkt.buf[44:]  # TCP header cut short
    elif kind == "long_offset":
        pkt.buf[34 + 12] = 0xF0  # 60-byte TCP header: may run past the frame
    elif kind == "ah":
        insert_ah(pkt, spi=7, seq=seed, icv_key=DEFAULT_VPN_KEY)
    return pkt


def serve(specs, floor, burst):
    """Two bursts through a fresh encryptor, ``import_shared_state``
    raising its sequence between them; per packet unless ``burst``."""
    nf = VpnEncryptor()
    recorder = AccessRecorder()
    pkts = [make_frame(spec) for spec in specs]
    for pkt in pkts:
        pkt.recorder = recorder
    half = len(pkts) // 2
    ctxs = []
    for part in (pkts[:half], pkts[half:]):
        if burst:
            ctxs += nf.handle_burst(part)
        else:
            ctxs += [nf.handle(pkt) for pkt in part]
        if floor is not None:
            nf.import_shared_state({"seq": floor})
    index = {pkt.uid: i for i, pkt in enumerate(pkts)}
    return {
        "bytes": [bytes(pkt.buf) for pkt in pkts],
        "wire_len": [pkt.wire_len for pkt in pkts],
        "verdicts": [(ctx.dropped, ctx.drop_reason) for ctx in ctxs],
        "counters": (nf.seq, nf.errors, nf.dropped_packets, nf.rx_packets),
        "events": [(e.verb, e.field, index[e.packet_uid]) for e in recorder.events],
    }


@settings(max_examples=40, deadline=None)
@given(specs=st.lists(frame_specs, min_size=1, max_size=40),
       floor=st.sampled_from([None, 0, 1000, 2**32 - 3, 2**64 - 4]))
def test_burst_matches_per_packet_handle(specs, floor):
    assert serve(specs, floor, burst=True) == serve(specs, floor, burst=False)


def test_burst_runs_one_lane_pass_and_no_per_packet_call(monkeypatch):
    passes, singles = [], []
    keystreams, transform = vpn_module.aes_ctr_keystreams, vpn_module.aes_ctr_transform

    def counted_keystreams(key, spans):
        passes.append(list(spans))
        return keystreams(key, spans)

    def counted_transform(key, nonce, data):
        singles.append(nonce)
        return transform(key, nonce, data)

    monkeypatch.setattr(vpn_module, "aes_ctr_keystreams", counted_keystreams)
    monkeypatch.setattr(vpn_module, "aes_ctr_transform", counted_transform)
    nf = VpnEncryptor()
    nf.import_shared_state({"seq": 41})
    pkts = [build_packet(size=64 + 10 * i, identification=i) for i in range(10)]
    nf.handle_burst(pkts)
    assert passes == [[(42 + i, 10 + 10 * i) for i in range(10)]]
    assert singles == []
    assert nf.seq == 51


def test_a_payload_that_changed_since_the_burst_was_read_takes_its_own_call():
    class Growing(VpnEncryptor):
        """Lengthens the next frame while serving the first one."""

        def process(self, pkt, ctx):
            if self.seq == 0:
                later.buf.extend(b"tail")
            super().process(pkt, ctx)

    burst = [build_packet(size=80, identification=i) for i in range(3)]
    later = burst[1]
    Growing().handle_burst(burst)

    alone = [build_packet(size=80, identification=i) for i in range(3)]
    alone[1].buf.extend(b"tail")
    nf = VpnEncryptor()
    for pkt in alone:
        assert not nf.handle(pkt).dropped
    assert [bytes(p.buf) for p in burst] == [bytes(p.buf) for p in alone]


@pytest.mark.parametrize("count", (0, 1))
def test_tiny_bursts(count):
    pkts = [build_packet(size=70) for _ in range(count)]
    nf = VpnEncryptor()
    assert len(nf.handle_burst(pkts)) == count
    assert nf.seq == count and nf._spans is None and nf._streams is None
