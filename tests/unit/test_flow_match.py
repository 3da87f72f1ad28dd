"""Unit tests for FlowMatch classification rules."""

import pytest

from repro.core import FlowMatch, Orchestrator, Policy
from repro.dataplane import NFPServer
from repro.net import PROTO_TCP, PROTO_UDP, build_packet
from repro.net.packet import encode_flow_key as key
from repro.sim import DEFAULT_PARAMS, Environment
from repro.traffic import feed_list


def test_flow_match_prefixes():
    match = FlowMatch(src_prefix=("10.1.0.0", 16))
    assert match.matches(key(("10.1.2.3", "8.8.8.8", 6, 1, 2)))
    assert not match.matches(key(("10.2.2.3", "8.8.8.8", 6, 1, 2)))


def test_flow_match_protocol_and_ports():
    match = FlowMatch(protocol=PROTO_TCP, dport_range=(80, 443))
    assert match.matches(key(("1.1.1.1", "2.2.2.2", PROTO_TCP, 999, 80)))
    assert not match.matches(key(("1.1.1.1", "2.2.2.2", PROTO_UDP, 999, 80)))
    assert not match.matches(key(("1.1.1.1", "2.2.2.2", PROTO_TCP, 999, 8080)))


def test_flow_match_any_matches_everything():
    match = FlowMatch()
    assert match.matches(key(("1.2.3.4", "5.6.7.8", 17, 0, 65535)))


def test_flow_match_validation():
    with pytest.raises(ValueError):
        FlowMatch(src_prefix=("10.0.0.0", 40))
    with pytest.raises(ValueError):
        FlowMatch(protocol=300)
    with pytest.raises(ValueError):
        FlowMatch(dport_range=(10, 5))


def test_classifier_routes_flows_by_predicate():
    orch = Orchestrator()
    web = orch.deploy(
        Policy.from_chain(["firewall", "monitor"], name="web"),
        match=FlowMatch(dport_range=(80, 80), name="web-traffic"),
    )
    rest = orch.deploy(Policy.from_chain(["gateway", "caching"], name="rest"))

    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS)
    server.deploy(web)
    server.deploy(rest)

    packets = [build_packet(src_port=4000 + i, dst_port=80 if i % 2 == 0 else 443,
                            size=64, identification=i) for i in range(20)]
    feed_list(env, server.inject, packets, 1.0)
    env.run()
    assert server.rate.delivered == 20
    # Port-80 flows traversed the web graph; others the rest graph.
    assert server.nfs["monitor"].flow_count() == 10
    assert server.nfs["caching"].hits + server.nfs["caching"].misses == 10


def test_predicate_order_first_match_wins():
    from repro.core.tables import ClassificationTable, CTEntry

    table = ClassificationTable()
    narrow = CTEntry(FlowMatch(dport_range=(80, 80)), mid=1, total_count=1,
                     merge_ops=[], actions=[])
    broad = CTEntry(FlowMatch(dport_range=(0, 1000)), mid=2, total_count=1,
                    merge_ops=[], actions=[])
    table.install(narrow)
    table.install(broad)
    assert table.lookup(key(("1.1.1.1", "2.2.2.2", 6, 5, 80))).mid == 1
    assert table.lookup(key(("1.1.1.1", "2.2.2.2", 6, 5, 443))).mid == 2
    assert table.lookup(key(("1.1.1.1", "2.2.2.2", 6, 5, 9999))) is None
    assert len(table) == 2


def test_exact_match_beats_predicates():
    from repro.core.tables import ClassificationTable, CTEntry

    table = ClassificationTable()
    five = ("1.1.1.1", "2.2.2.2", 6, 5, 80)
    table.install(CTEntry(FlowMatch(), mid=1, total_count=1, merge_ops=[], actions=[]))
    table.install(CTEntry(five, mid=2, total_count=1, merge_ops=[], actions=[]))
    table.install(CTEntry("*", mid=3, total_count=1, merge_ops=[], actions=[]))
    assert table.lookup(key(five)).mid == 2
    assert table.lookup(key(("9.9.9.9", "2.2.2.2", 6, 5, 80))).mid == 1
    assert table.lookup(None).mid == 3  # a frame with no key


def test_fragments_of_one_datagram_classify_into_one_row():
    from repro.core.tables import build_tables
    from repro.dataplane import ChainingManager, packet_key

    orch = Orchestrator()
    manager = ChainingManager()
    manager.install(build_tables(
        orch.compile(Policy.from_chain(["firewall"])).graph, mid=1,
        match=FlowMatch(dport_range=(80, 80))))
    manager.install(build_tables(
        orch.compile(Policy.from_chain(["monitor"])).graph, mid=2))

    def fragment(offset_words, l4_bytes, more):
        pkt = build_packet(src_port=4000, dst_port=80, size=96,
                           identification=9)
        pkt.ipv4.more_fragments = more
        pkt.ipv4.fragment_offset = offset_words
        if offset_words:
            pkt.buf[34:38] = l4_bytes  # payload where ports would be
        return pkt

    datagram = [fragment(0, None, True),
                fragment(8, b"\x00\x50\x00\x50", True),  # "ports" 80, 80
                fragment(16, b"\x12\x34\x56\x78", False)]
    mids = {manager.classify(packet_key(pkt)).mid for pkt in datagram}
    # One row for the whole datagram: the fragments' key has ports 0,
    # so the port-80 predicate sees none of them (as iptables does).
    assert mids == {2}
    whole = build_packet(src_port=4000, dst_port=80, size=96)
    assert manager.classify(packet_key(whole)).mid == 1
