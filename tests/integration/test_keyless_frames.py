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
emits for the same frames.
"""

import pytest

from repro.baselines import BessServer
from repro.core import Orchestrator, Policy
from repro.dataplane import FunctionalDataplane, NFPServer
from repro.net import Packet, build_packet
from repro.sim import DEFAULT_PARAMS, Environment

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
    def feed():
        for buf in _frames():
            server.inject(Packet(bytearray(buf)))
            yield env.timeout(GAP_US)

    env.process(feed())
    env.run()


@pytest.mark.parametrize("cache", [0, 64])
@pytest.mark.parametrize("instances", [1, 4])
def test_nfp_server_drains_keyless_frames_like_the_functional_plane(
        instances, cache):
    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS, flow_cache_size=cache)
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
