"""Classifier flow cache: LRU behavior, telemetry, invalidation, bypass.

The cache memoizes the classifier's per-flow verdict (CT match, graph,
RSS instance assignment).  These tests pin down the contract: exact
hit/miss accounting via telemetry counters, LRU eviction at capacity,
wholesale invalidation whenever tables are (re)installed -- a recompiled
graph must never be reachable through a stale decision -- and bypass
for the frames with no flow key at all (not IPv4, cut short).  ICMP and
fragments have a key (ports 0), so they are cached like any flow.
"""

import pytest

from repro.core import Orchestrator, Policy
from repro.core.tables import build_tables
from repro.dataplane import FlowCache, FlowDecision, NFPServer, packet_key
from repro.net.packet import build_packet
from repro.sim import DEFAULT_PARAMS, Environment
from repro.telemetry import TelemetryHub

GAP_US = 25.0


def _flow_packet(flow: int, ident: int):
    return build_packet(src_ip=f"10.9.{flow}.1", dst_ip="10.9.0.2",
                        src_port=30000 + flow, dst_port=80,
                        identification=ident)


def _serve(packets, flow_cache_size=16, hub=None, chain=("monitor",)):
    env = Environment(track_stats=hub is not None)
    server = NFPServer(env, DEFAULT_PARAMS, telemetry=hub,
                       flow_cache_size=flow_cache_size)
    server.deploy(Orchestrator().deploy(Policy.from_chain(list(chain))))

    def feed():
        for pkt in packets:
            server.inject(pkt)
            yield env.timeout(GAP_US)

    env.process(feed())
    env.run()
    return server


# --------------------------------------------------------------- LRU core
def test_lru_eviction_at_capacity():
    cache = FlowCache(capacity=2)
    decision = FlowDecision(ct_entry=None, assignment={})
    assert cache.put(("a",), decision) is False
    assert cache.put(("b",), decision) is False
    assert cache.get(("a",)) is decision  # 'a' becomes most-recent
    assert cache.put(("c",), decision) is True  # evicts LRU 'b'
    assert cache.keys() == (("a",), ("c",))
    assert cache.evictions == 1
    assert cache.get(("b",)) is None
    assert cache.misses == 1
    assert cache.hits == 1


def test_reinserting_existing_key_never_evicts():
    cache = FlowCache(capacity=2)
    decision = FlowDecision(ct_entry=None, assignment={})
    cache.put(("a",), decision)
    cache.put(("b",), decision)
    assert cache.put(("a",), decision) is False
    assert len(cache) == 2
    assert cache.evictions == 0


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        FlowCache(capacity=0)


# ------------------------------------------------------ server accounting
def test_hit_miss_counters_via_telemetry():
    # Two flows, interleaved: first packet of each flow misses, the
    # remaining six hit.
    packets = [_flow_packet(flow=i % 2, ident=i) for i in range(8)]
    hub = TelemetryHub()
    server = _serve(packets, hub=hub)
    registry = hub.registry
    assert registry.counter_value("classifier.cache_miss") == 2
    assert registry.counter_value("classifier.cache_hit") == 6
    assert registry.counter_value("classifier.cache_bypass") == 0
    assert server.flow_cache.hits == 6
    assert server.flow_cache.misses == 2
    assert server.rate.delivered == 8

    server.collect_telemetry()
    gauges = registry.gauges
    assert gauges["classifier.flow_cache.size"].value == 2.0
    assert gauges["classifier.flow_cache.capacity"].value == 16.0


def test_server_cache_evicts_at_capacity():
    # 6 distinct flows through a 4-entry cache: every packet misses and
    # the last two insertions evict the two oldest flows.
    packets = [_flow_packet(flow=i, ident=i) for i in range(6)]
    hub = TelemetryHub()
    server = _serve(packets, flow_cache_size=4, hub=hub)
    assert hub.registry.counter_value("classifier.cache_miss") == 6
    assert hub.registry.counter_value("classifier.cache_evict") == 2
    assert len(server.flow_cache) == 4


# ------------------------------------------------------------ invalidation
def test_reinstall_invalidates_cache_and_forces_reclassify():
    env = Environment()
    orch = Orchestrator()
    server = NFPServer(env, DEFAULT_PARAMS, flow_cache_size=16)
    server.keep_packets = True
    deployed = orch.deploy(Policy.from_chain(["monitor"]))
    server.deploy(deployed)  # install #1 -> invalidation 1
    cache = server.flow_cache

    def feed(idents):
        for ident in idents:
            server.inject(_flow_packet(flow=0, ident=ident))
            yield env.timeout(GAP_US)

    env.process(feed([1, 2]))
    env.run()
    assert cache.misses == 1 and cache.hits == 1
    assert len(cache) == 1
    old_mid = deployed.mid
    assert all(p.meta.mid == old_mid for p in server.emitted_packets)

    # Recompile/reinstall: same graph under a fresh MID.  The install
    # listener must wipe the cache so the memoized decision pointing at
    # the old tables is unreachable.
    new_mid = old_mid + 1
    server.chaining.install(build_tables(deployed.graph, new_mid))
    assert len(cache) == 0
    assert cache.invalidations == 2  # deploy + reinstall

    server.emitted_packets.clear()
    env.process(feed([3]))
    env.run()
    # The repeat flow re-classified (miss, not a stale hit) and came out
    # tagged with the *new* MID.
    assert cache.misses == 2 and cache.hits == 1
    assert [p.meta.mid for p in server.emitted_packets] == [new_mid]


# ----------------------------------------------------------------- bypass
def test_icmp_and_fragments_are_cached_only_keyless_frames_bypass():
    icmp = _flow_packet(flow=0, ident=1)
    icmp.ipv4.protocol = 1  # ICMP
    head = _flow_packet(flow=1, ident=2)
    head.ipv4.more_fragments = True
    tail = _flow_packet(flow=1, ident=2)
    tail.ipv4.fragment_offset = 64
    tail.buf[34:38] = b"\xde\xad\xbe\xef"  # payload bytes, not ports
    plain = _flow_packet(flow=3, ident=4)
    arp = _flow_packet(flow=4, ident=5)
    arp.buf[12:14] = b"\x08\x06"

    assert packet_key(icmp) is not None
    # One datagram, one key: neither fragment's "ports" are read.
    assert packet_key(head) == packet_key(tail) != packet_key(plain)
    assert packet_key(arp) is None

    hub = TelemetryHub()
    server = _serve([icmp, head, tail, plain, arp], hub=hub)
    assert hub.registry.counter_value("classifier.cache_bypass") == 1
    assert hub.registry.counter_value("classifier.cache_miss") == 3
    assert hub.registry.counter_value("classifier.cache_hit") == 1
    assert server.flow_cache.bypasses == 1
    assert len(server.flow_cache) == 3
    # The keyless frame took the wildcard row; the monitor cannot read
    # it and drops it, like the functional plane does.
    assert server.rate.delivered == 4
    assert server.conservation_report()["unaccounted"] == 0
