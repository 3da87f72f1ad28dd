"""The functional plane's stage-major walk: the burst reaches the NF.

``FunctionalDataplane.process_many`` runs each stage over the whole
burst; ``process`` is its burst of one.  The VPN's ``handle_burst``
computes every payload's keystream in one lane pass; on this plane that
pass must run once per burst, not once per packet.  And the burst walk
keeps its per-packet call budget, as does the same west-east chain on
the event-driven server.
"""

import sys

from repro.core import Orchestrator, Policy
from repro.dataplane import FunctionalDataplane, NFPServer
from repro.net import Packet, build_packet
from repro.net import ah as ah_module
from repro.nfs import vpn as vpn_module
from repro.nfs.vpn import VpnEncryptor
from repro.sim import DEFAULT_PARAMS, Environment
from repro.traffic import FlowGenerator, PacketSizeDistribution, TrafficSource


def test_vpn_ciphers_once_per_burst(monkeypatch):
    calls = []
    keystreams = vpn_module.aes_ctr_keystreams

    def counted(key, spans):
        calls.append(len(spans))
        return keystreams(key, spans)

    monkeypatch.setattr(vpn_module, "aes_ctr_keystreams", counted)
    graph = Orchestrator().compile(
        Policy.from_chain(["vpn", "monitor", "firewall", "loadbalancer"])).graph
    plane = FunctionalDataplane(graph)
    stream = [build_packet(src_port=1000 + i, size=300) for i in range(20)]
    outputs = plane.process_many(stream[:8]) + plane.process_many(stream[8:])
    assert all(out is not None for out in outputs)
    assert calls == [8, 12]
    # A burst of one is the per-packet case: one pass for its payload.
    plane.process(build_packet(src_port=999, size=300))
    assert calls == [8, 12, 1]


# Profiler events ("call" + "c_call", as the lab's ``count_calls``
# counts them) per packet of one west-east x4 burst of 64-byte frames,
# the lab's ``we_x4_64b_func`` at a burst of 750.  It was 81.32 while a
# flow key, a payload read and a header copy each walked the stack
# through ``_ipv4_offset`` under ``_resolve``, and the load balancer
# and the merge walked again for the IPv4 offset; it is 59.32 once each
# question is one walk (CPython 3.10 and 3.11; 3.12 reads 0.06 less).
# The budget leaves about 4.5%, so a walk nested again fails here and
# not only in the lab's traced gate.
WEST_EAST_CALLS_PER_PKT = 62.0


# The same chain through the event-driven NFPServer: 600 packets of the
# lab's ``we_dcmix_des`` DC mix at 0.75 Mpps, seed 1, every scheduled
# call of the run counted.  It was 240.58 while the IDS found its runs
# with an ``re`` scan and every posted reference landed through
# ``NFPServer._land``; it is 203.64 with the class-table prefilter, the
# direct ``Ring.try_put`` landing and ``Environment.now`` a plain
# attribute (CPython 3.11).  The budget leaves about 3%.
WEST_EAST_DES_CALLS_PER_PKT = 210.0

WEST_EAST = ["ids", "monitor", "loadbalancer"]
DC_MIX = PacketSizeDistribution(
    [(64, 0.40), (200, 0.05), (576, 0.10), (1024, 0.05), (1450, 0.40)])


def test_vpn_burst_walks_each_header_twice_and_times_each_icv(monkeypatch):
    # One header walk in the burst's length pre-scan and one in
    # ``process`` (the payload read, its write and the AH test); the AH
    # splice finds its IPv4 offset once.  It was three walks and two
    # offset look-ups a packet before.  And the ICV goes through
    # ``repro.net.ah.compute_icv``, the module attribute the lab
    # replaces to time it: a call that bypassed it reads 0 there.
    pkts = FlowGenerator(num_flows=64, sizes=DC_MIX, seed=1).packets(10)
    assert len({len(pkt.buf) for pkt in pkts}) > 1
    walks = {"_header_span": 0, "_ipv4_offset": 0}
    for name in walks:
        original = getattr(Packet, name)

        def counted(pkt, _name=name, _original=original):
            walks[_name] += 1
            return _original(pkt)

        monkeypatch.setattr(Packet, name, counted)
    icvs = []
    compute_icv = ah_module.compute_icv

    def counted_icv(key, data, length=12):
        icvs.append(len(data))
        return compute_icv(key, data, length)

    monkeypatch.setattr(ah_module, "compute_icv", counted_icv)
    ctxs = VpnEncryptor().handle_burst(pkts)
    assert walks["_header_span"] <= 2 * len(pkts)
    assert walks["_ipv4_offset"] <= len(pkts)
    assert len(icvs) == len(pkts)
    assert not any(ctx.dropped for ctx in ctxs)
    assert all(pkt.has_ah for pkt in pkts)


def _calls(func) -> int:
    """Profiler "call" + "c_call" events of ``func()``."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or (event == "c_call" and arg is not sys.setprofile):
            calls += 1

    sys.setprofile(profile)
    try:
        func()
    finally:
        sys.setprofile(None)
    return calls


def test_west_east_burst_stays_within_its_call_budget():
    graph = Orchestrator().compile(Policy.from_chain(WEST_EAST)).graph
    plane = FunctionalDataplane(graph, scale=4)
    stream = FlowGenerator(num_flows=8192, sizes=PacketSizeDistribution(
        [(64, 1.0)]), seed=1, popularity="zipf", zipf_s=1.2).packets(1500)
    plane.process_many(stream[:750])  # first-burst set-up stays out
    calls = _calls(lambda: plane.process_many(stream[750:]))
    assert calls / 750 <= WEST_EAST_CALLS_PER_PKT


def test_west_east_des_pass_stays_within_its_call_budget():
    packets = 600
    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS)
    server.deploy(Orchestrator().deploy(Policy.from_chain(WEST_EAST)))
    TrafficSource(env, server.inject, 0.75, packets,
                  flows=FlowGenerator(num_flows=64, sizes=DC_MIX, seed=1),
                  seed=1)
    calls = _calls(env.run)
    assert server.emitted == packets and server.lost == 0
    assert calls / packets <= WEST_EAST_DES_CALLS_PER_PKT
