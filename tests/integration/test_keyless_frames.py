"""Frames without a whole five-tuple drain through every timed plane.

Two frames no TCP/UDP flow key can be read from: an ARP frame
(ethertype 0x0806, not IPv4 at all) and a trailing TCP fragment with
only 10 bytes past its IPv4 header.  The classifier used to read the
five-tuple of every packet it looked up, and BESS's NIC hashed it, so
either frame raised ``ValueError`` out of ``env.run()``.  Now the
classifier and the RSS split read ``Packet.flow_key()``: the fragment
has a key (ports 0, its L4 bytes unread), the ARP frame has none and
takes the wildcard row and instance 0.  Each server must drain with its
ledger balanced and deliver exactly the bytes the functional plane
emits for the same frames.  ICMP and fragments are flows like any
other: an ICMP frame has a key (ports 0), and both fragments of one
datagram share one.
"""

import pytest

from repro.baselines import BessServer
from repro.core import Orchestrator, Policy
from repro.dataplane import FunctionalDataplane, NFPServer, packet_key
from repro.net import Packet, build_packet
from repro.sim import DEFAULT_PARAMS, Environment
from repro.telemetry import TelemetryHub
from repro.traffic import feed_list

CHAIN = ["firewall", "monitor", "loadbalancer"]
GAP_US = 5.0


def _frames():
    plain = [bytes(build_packet(src_ip=f"10.0.{i}.1", src_port=1000 + i,
                                size=96, identification=i).buf)
             for i in range(6)]
    arp = build_packet(size=96, identification=50)
    arp.buf[12:14] = b"\x08\x06"
    tail = build_packet(size=96, identification=51)
    tail.ipv4.fragment_offset = 8
    tail.ipv4.total_length = 20 + 10
    tail.ipv4.update_checksum()
    return plain[:3] + [bytes(arp.buf), bytes(tail.buf[:14 + 20 + 10])] + plain[3:]


def _functional(instances):
    graph = Orchestrator().compile(Policy.from_chain(CHAIN)).graph
    plane = FunctionalDataplane(graph, scale=instances)
    outputs = [plane.process(Packet(bytearray(buf))) for buf in _frames()]
    return sorted(bytes(out.buf) for out in outputs if out is not None)


def _feed(env, server):
    feed_list(env, server.inject, [Packet(bytearray(buf)) for buf in _frames()],
              GAP_US)
    env.run()


@pytest.mark.parametrize("instances", [1, 4])
def test_nfp_server_drains_keyless_frames_like_the_functional_plane(
        instances):
    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS)
    server.keep_packets = True
    deployed = Orchestrator().deploy(Policy.from_chain(CHAIN))
    server.deploy(deployed, scale={name: instances
                                   for name in deployed.graph.nf_names()})
    _feed(env, server)
    report = server.conservation_report()
    assert report["injected"] == len(_frames())
    assert report["unaccounted"] == 0
    assert report["flight_depth"] == 0 and report["at_depth"] == 0
    got = sorted(bytes(pkt.buf) for pkt in server.emitted_packets)
    assert got == _functional(instances)


def test_bess_server_drains_keyless_frames_like_the_functional_plane():
    env = Environment()
    server = BessServer(env, DEFAULT_PARAMS, CHAIN, num_cores=4)
    server.keep_packets = True
    _feed(env, server)
    got = sorted(bytes(pkt.buf) for pkt in server.emitted_packets)
    assert len(got) + server.nil_dropped + server.lost == len(_frames())
    assert got == _functional(1)


def _flow_frame(flow: int, ident: int) -> Packet:
    return build_packet(src_ip=f"10.9.{flow}.1", dst_ip="10.9.0.2",
                        src_port=30000 + flow, dst_port=80,
                        identification=ident)


def test_icmp_and_fragments_keyed_keyless_frame_on_instance_0():
    icmp = _flow_frame(flow=0, ident=1)
    icmp.ipv4.protocol = 1  # ICMP
    head = _flow_frame(flow=1, ident=2)
    head.ipv4.more_fragments = True
    tail = _flow_frame(flow=1, ident=2)
    tail.ipv4.fragment_offset = 64
    tail.buf[34:38] = b"\xde\xad\xbe\xef"  # payload bytes, not ports
    plain = _flow_frame(flow=3, ident=4)
    arp = _flow_frame(flow=4, ident=5)
    arp.buf[12:14] = b"\x08\x06"

    assert packet_key(icmp) is not None
    # One datagram, one key: neither fragment's "ports" are read.
    assert packet_key(head) == packet_key(tail) != packet_key(plain)
    assert packet_key(arp) is None

    hub = TelemetryHub()
    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS, telemetry=hub)
    server.deploy(Orchestrator().deploy(Policy.from_chain(["monitor"])),
                  scale={"monitor": 2})
    feed_list(env, server.inject, [icmp, head, tail, plain, arp], GAP_US)
    env.run()
    # The keyless frame took the wildcard row and instance 0, and only
    # it was pinned; the monitor cannot read it and drops it, like the
    # functional plane does.
    assert hub.registry.counter_value("rss.pinned_flows") == 1
    assert server.nfs["monitor#0"].dropped_packets == 1
    assert server.nfs["monitor#1"].dropped_packets == 0
    assert server.rate.delivered == 4
    assert server.conservation_report()["unaccounted"] == 0
