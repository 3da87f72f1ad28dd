"""Unit tests for pcap trace I/O and the connection-tracking firewall."""

import io
import struct

import pytest

from repro.net import PcapError, build_packet, read_pcap, write_pcap
from repro.net.headers import TcpView
from repro.nfs import ConnState, ConnTrackFirewall
from repro.traffic import FlowGenerator


# ------------------------------------------------------------------- pcap
def test_pcap_roundtrip(tmp_path):
    packets = FlowGenerator(num_flows=4, seed=9).packets(10)
    for index, pkt in enumerate(packets):
        pkt.ingress_us = index * 13.5
    path = tmp_path / "trace.pcap"
    assert write_pcap(path, packets) == 10

    restored = read_pcap(path)
    assert len(restored) == 10
    for (ts, out), original in zip(restored, packets):
        assert bytes(out.buf) == bytes(original.buf)
        assert out.wire_len == original.wire_len
        assert ts == pytest.approx(original.ingress_us, abs=1.0)


def test_pcap_global_header_is_standard(tmp_path):
    path = tmp_path / "t.pcap"
    write_pcap(path, [build_packet(size=64)])
    raw = path.read_bytes()
    magic, major, minor = struct.unpack("<IHH", raw[:8])
    assert magic == 0xA1B2C3D4
    assert (major, minor) == (2, 4)
    linktype = struct.unpack("<I", raw[20:24])[0]
    assert linktype == 1  # Ethernet


def test_pcap_skips_nil_and_respects_snaplen(tmp_path):
    pkt = build_packet(size=1500)
    path = tmp_path / "snap.pcap"
    write_pcap(path, [pkt, pkt.make_nil()])
    records = read_pcap(path)
    assert len(records) == 1
    assert bytes(records[0][1].buf) == bytes(pkt.buf)
    # A capture cut at a 100-byte snap length keeps the wire length.
    buf = io.BytesIO()
    buf.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 100, 1))
    buf.write(struct.pack("<IIII", 0, 0, 100, 1500))
    buf.write(bytes(pkt.buf[:100]))
    buf.seek(0)
    _, out = read_pcap(buf)[0]
    assert len(out.buf) == 100
    assert out.wire_len == 1500  # original length preserved


def test_pcap_big_endian_read():
    # Hand-build a big-endian capture with one 4-byte record.
    buf = io.BytesIO()
    buf.write(struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
    buf.write(struct.pack(">IIII", 1, 500, 4, 4))
    buf.write(b"\xde\xad\xbe\xef")
    buf.seek(0)
    records = read_pcap(buf)
    assert len(records) == 1
    ts, pkt = records[0]
    assert ts == 1_000_500.0
    assert bytes(pkt.buf) == b"\xde\xad\xbe\xef"


def test_pcap_rejects_garbage():
    with pytest.raises(PcapError):
        read_pcap(io.BytesIO(b"not a pcap file at all......"))
    with pytest.raises(PcapError):
        read_pcap(io.BytesIO(b"\x00"))


def test_pcap_truncated_record():
    buf = io.BytesIO()
    buf.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
    buf.write(struct.pack("<IIII", 0, 0, 10, 10))
    buf.write(b"short")
    buf.seek(0)
    with pytest.raises(PcapError):
        read_pcap(buf)


# -------------------------------------------------------------- conntrack
def syn(src, dst, sport, dport, **kw):
    pkt = build_packet(src_ip=src, dst_ip=dst, src_port=sport,
                       dst_port=dport, size=64, **kw)
    pkt.tcp.flags = TcpView.FLAG_SYN
    return pkt


def flagged(src, dst, sport, dport, flags):
    pkt = build_packet(src_ip=src, dst_ip=dst, src_port=sport,
                       dst_port=dport, size=64)
    pkt.tcp.flags = flags
    return pkt


INSIDE, OUTSIDE = "10.1.2.3", "198.51.100.9"


def test_handshake_establishes_connection():
    fw = ConnTrackFirewall()
    assert not fw.handle(syn(INSIDE, OUTSIDE, 1000, 80)).dropped
    synack = flagged(OUTSIDE, INSIDE, 80, 1000,
                     TcpView.FLAG_SYN | TcpView.FLAG_ACK)
    assert not fw.handle(synack).dropped
    ack = flagged(INSIDE, OUTSIDE, 1000, 80, TcpView.FLAG_ACK)
    assert not fw.handle(ack).dropped
    assert fw.established == 1
    assert fw.state_of(ack) is ConnState.ESTABLISHED


def test_unsolicited_inbound_dropped():
    fw = ConnTrackFirewall()
    assert fw.handle(syn(OUTSIDE, INSIDE, 5555, 22)).dropped
    data = flagged(OUTSIDE, INSIDE, 5555, 22, TcpView.FLAG_ACK)
    assert fw.handle(data).dropped
    assert fw.rejected == 2


def test_synack_without_syn_dropped():
    fw = ConnTrackFirewall()
    rogue = flagged(OUTSIDE, INSIDE, 80, 1000,
                    TcpView.FLAG_SYN | TcpView.FLAG_ACK)
    assert fw.handle(rogue).dropped


def test_established_traffic_flows_both_ways():
    fw = ConnTrackFirewall()
    fw.handle(syn(INSIDE, OUTSIDE, 1000, 80))
    fw.handle(flagged(OUTSIDE, INSIDE, 80, 1000,
                      TcpView.FLAG_SYN | TcpView.FLAG_ACK))
    fw.handle(flagged(INSIDE, OUTSIDE, 1000, 80, TcpView.FLAG_ACK))
    inbound = flagged(OUTSIDE, INSIDE, 80, 1000, TcpView.FLAG_ACK)
    assert not fw.handle(inbound).dropped


def test_a_first_fragment_of_an_established_connection_passes():
    # Fragment 0 (MF set, offset 0) carries the TCP header: conntrack
    # finds the connection under its real ports, not under ports 0.
    fw = ConnTrackFirewall()
    fw.handle(syn(INSIDE, OUTSIDE, 1000, 80))
    fw.handle(flagged(OUTSIDE, INSIDE, 80, 1000,
                      TcpView.FLAG_SYN | TcpView.FLAG_ACK))
    fw.handle(flagged(INSIDE, OUTSIDE, 1000, 80, TcpView.FLAG_ACK))
    for src, dst, sport, dport in ((INSIDE, OUTSIDE, 1000, 80),
                                   (OUTSIDE, INSIDE, 80, 1000)):
        first = flagged(src, dst, sport, dport, TcpView.FLAG_ACK)
        first.ipv4.more_fragments = True
        first.ipv4.update_checksum()
        assert fw.state_of(first) is ConnState.ESTABLISHED
        assert not fw.handle(first).dropped
    assert fw.rejected == 0


def test_a_fragmented_syn_opens_only_its_own_connection():
    fw = ConnTrackFirewall()
    first = syn(INSIDE, OUTSIDE, 1000, 80)
    first.ipv4.more_fragments = True
    first.ipv4.update_checksum()
    fw.handle(first)
    # A fragmented SYN/ACK of another port pair is no answer to it.
    other = flagged(OUTSIDE, INSIDE, 81, 1001,
                    TcpView.FLAG_SYN | TcpView.FLAG_ACK)
    other.ipv4.more_fragments = True
    other.ipv4.update_checksum()
    assert fw.state_of(other) is None
    assert fw.handle(other).dropped


def test_fin_and_rst_teardown():
    fw = ConnTrackFirewall()
    fw.handle(syn(INSIDE, OUTSIDE, 1000, 80))
    assert fw.connection_count() == 1
    fw.handle(flagged(INSIDE, OUTSIDE, 1000, 80, TcpView.FLAG_RST))
    assert fw.connection_count() == 0

    fw.handle(syn(INSIDE, OUTSIDE, 2000, 80))
    fw.handle(flagged(OUTSIDE, INSIDE, 80, 2000,
                      TcpView.FLAG_SYN | TcpView.FLAG_ACK))
    fw.handle(flagged(INSIDE, OUTSIDE, 2000, 80,
                      TcpView.FLAG_ACK | TcpView.FLAG_FIN))
    assert fw.connection_count() == 0


def test_connection_table_limit():
    fw = ConnTrackFirewall(max_connections=1)
    assert not fw.handle(syn(INSIDE, OUTSIDE, 1, 80)).dropped
    assert fw.handle(syn(INSIDE, OUTSIDE, 2, 80)).dropped


def test_non_tcp_policy():
    from repro.net import PROTO_UDP

    fw = ConnTrackFirewall()
    out_udp = build_packet(src_ip=INSIDE, dst_ip=OUTSIDE,
                           protocol=PROTO_UDP, size=64)
    assert not fw.handle(out_udp).dropped
    in_udp = build_packet(src_ip=OUTSIDE, dst_ip=INSIDE,
                          protocol=PROTO_UDP, size=64)
    assert fw.handle(in_udp).dropped


def test_conntrack_compiles_into_graphs():
    from repro.core import Orchestrator, Policy

    graph = Orchestrator().compile(
        Policy.from_chain(["conntrack-firewall", "monitor"])
    ).graph
    # Same profile as the stateless firewall -> same parallelisation.
    assert graph.equivalent_length == 1
