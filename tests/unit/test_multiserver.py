"""Unit tests for cross-server parallelism (NSH shim + the timed plane)."""

import ipaddress

import pytest

from repro.core import Orchestrator, Policy
from repro.multiserver import (
    NSH_LEN,
    NshTag,
    TimedMultiServer,
    decapsulate,
    encapsulate,
    has_nsh,
)
from repro.core.partition import partition_graph, slice_subgraph
from repro.net import PacketMeta, build_packet
from repro.nfs.firewall import build_acl
from repro.sim import DEFAULT_PARAMS, Environment


def graph_for(chain):
    return Orchestrator().compile(Policy.from_chain(chain)).graph


def run_timed(graph, cores_per_server, packets, gap_us=2.0):
    """``packets`` through the timed plane, one every ``gap_us``; the
    tail keeps what it emits."""
    env = Environment()
    multi = TimedMultiServer(env, DEFAULT_PARAMS, graph,
                             partition_graph(graph, cores_per_server))
    multi.tail.keep_packets = True
    for i, pkt in enumerate(packets):
        env.call_at(i * gap_us, multi.inject, pkt)
    env.run()
    return multi


# -------------------------------------------------------------------- NSH
def test_nsh_roundtrip_preserves_frame_and_metadata():
    pkt = build_packet(size=128, payload=b"data")
    original = bytes(pkt.buf)
    meta = PacketMeta(mid=9, pid=12345, version=1)
    encapsulate(pkt, NshTag(path_id=7, index=2, meta=meta))
    assert has_nsh(pkt)
    assert len(pkt.buf) == 128 + NSH_LEN
    assert pkt.wire_len == 128 + NSH_LEN

    tag = decapsulate(pkt)
    assert bytes(pkt.buf) == original
    assert pkt.wire_len == 128
    assert tag == NshTag(7, 2, meta)
    assert pkt.meta == meta


def test_nsh_double_encapsulation_rejected():
    pkt = build_packet(size=64)
    meta = PacketMeta(mid=1, pid=2, version=1)
    encapsulate(pkt, NshTag(1, 1, meta))
    with pytest.raises(ValueError):
        encapsulate(pkt, NshTag(1, 2, meta))


def test_nsh_decapsulate_requires_shim():
    with pytest.raises(ValueError):
        decapsulate(build_packet(size=64))


def test_nsh_tagged_frame_not_parsable_as_ipv4():
    pkt = build_packet(size=64)
    encapsulate(pkt, NshTag(1, 1, PacketMeta(1, 1, 1)))
    with pytest.raises(ValueError):
        _ = pkt.ipv4


def test_nsh_field_validation():
    meta = PacketMeta(1, 1, 1)
    with pytest.raises(ValueError):
        NshTag(path_id=1 << 32, index=0, meta=meta)
    with pytest.raises(ValueError):
        NshTag(path_id=1, index=300, meta=meta)


# ----------------------------------------------------------- slice merges
def test_slice_merge_ops_follow_copy_versions():
    graph = graph_for(["ids", "monitor", "loadbalancer"])
    slices = partition_graph(graph, cores_per_server=8)
    assert len(slices) == 1
    assert slice_subgraph(graph, slices[0]).merge_ops == graph.merge_ops


def test_slice_merge_ops_split_across_servers():
    # (nat | monitor[v2]) -> vpn split over two servers: monitor's copy
    # merges on server 0 (it has no MOs, being read-only), and v1 alone
    # crosses the link.
    graph = graph_for(["monitor", "nat", "vpn"])
    slices = partition_graph(graph, cores_per_server=4)
    assert len(slices) == 2
    for s in slices:
        local = slice_subgraph(graph, s).merge_ops
        for op in local:
            versions = {e.version for st in s.stages for e in st}
            assert op.src_version in versions


# -------------------------------------------------------- multi-server run
def test_multiserver_output_matches_single_server():
    from repro.dataplane import FunctionalDataplane, SequentialReference
    from repro.nfs import create_nf

    # The north-south chain, and §7's six-NF chain at benchmark scale.
    cases = [
        (["vpn", "monitor", "firewall", "loadbalancer"], 40,
         lambda i: dict(src_ip=f"10.0.0.{i % 5 + 1}", src_port=100 + i,
                        size=200, payload=b"p")),
        (["gateway", "monitor", "nat", "firewall", "loadbalancer", "vpn"], 300,
         lambda i: dict(src_ip=f"192.0.2.{i % 120 + 1}", src_port=6000 + i,
                        size=256, payload=b"x")),
    ]
    for chain, count, fields in cases:
        def packets():
            return [build_packet(identification=i, **fields(i))
                    for i in range(count)]

        multi = run_timed(graph_for(chain), 5, packets())
        single = FunctionalDataplane(graph_for(chain))
        reference = SequentialReference(
            [create_nf(kind, name=f"ref-{kind}") for kind in chain])
        assert multi.num_servers == 2

        # Same bytes (or the same drop) as one server and as the chain
        # run in order, matched by IPv4 identification.
        got = {pkt.ipv4.identification: bytes(pkt.buf)
               for pkt in multi.tail.emitted_packets}
        for plane in (single, reference):
            outputs = plane.process_many(packets())
            assert got == {i: bytes(out.buf) for i, out in enumerate(outputs)
                           if out is not None}
        for link in multi.links:
            # The paper's constraint: one copy per packet per link, shim
            # overhead a fixed 16 B.
            assert link.frames == count
            assert link.bytes >= count * NSH_LEN


def test_one_frame_per_packet_per_link():
    # The paper's bandwidth constraint: each server sends only one copy.
    graph = graph_for(["ids", "monitor", "loadbalancer", "nat"])
    multi = run_timed(graph, 5, [
        build_packet(src_port=i, size=96, identification=i)
        for i in range(30)])
    assert multi.num_servers >= 2
    assert multi.delivered == 30
    for link in multi.links:
        assert link.frames == 30


def test_multiserver_drop_suppresses_downstream_work():
    graph = graph_for(["firewall", "monitor", "nat", "vpn"])
    # Every packet hits the firewall's first deny rule on server 0.
    deny = build_acl()[0]
    src_ip = str(ipaddress.IPv4Address(deny.src_net | 1))
    multi = run_timed(graph, 4, [
        build_packet(src_ip=src_ip, src_port=i,
                     dst_port=deny.dport_range[0], size=96)
        for i in range(10)])
    assert multi.num_servers >= 2
    assert multi.delivered == 0
    assert multi.nil_dropped == 10
    # A drop never crosses: no frame on any link, and the downstream
    # servers never ran their NFs.
    for link in multi.links:
        assert link.frames == 0
    for server in multi.servers[1:]:
        assert all(nf.rx_packets == 0 for nf in server.nfs.values())


def test_nf_lookup_across_servers():
    # Each of the graph's NFs runs on exactly one server of the plane.
    graph = graph_for(["monitor", "nat", "vpn"])
    multi = TimedMultiServer(Environment(), DEFAULT_PARAMS, graph,
                             partition_graph(graph, 4))
    kinds = [nf.KIND for server in multi.servers
             for nf in server.nfs.values()]
    assert multi.num_servers >= 2
    assert sorted(kinds) == ["monitor", "nat", "vpn"]


# --------------------------------------------------------- latency model
def _placed_penalty_us(graph, cores_per_server):
    """Partitioned zero-load latency over uniform NIC-rate links, minus
    the single-box floor; returns (slices, penalty)."""
    from repro.core import partition_graph
    from repro.eval.model import nfp_latency_floor
    from repro.multiserver import estimate_placed_latency
    from repro.placement import Link
    from repro.sim import DEFAULT_PARAMS

    slices = partition_graph(graph, cores_per_server)
    links = [Link(f"s{i}", f"s{i + 1}", gbps=DEFAULT_PARAMS.nic_gbps)
             for i in range(len(slices) - 1)]
    total = estimate_placed_latency(graph, slices, links, DEFAULT_PARAMS)
    return slices, total - nfp_latency_floor(graph, DEFAULT_PARAMS)


def test_cross_server_latency_penalty_is_link_cost():
    from repro.multiserver import link_cost_us
    from repro.sim import DEFAULT_PARAMS

    graph = graph_for(["gateway", "monitor", "nat", "firewall",
                       "loadbalancer", "vpn"])
    slices, penalty = _placed_penalty_us(graph, cores_per_server=5)
    assert len(slices) == 2
    assert penalty > 0
    assert penalty == pytest.approx(link_cost_us(DEFAULT_PARAMS, 64), abs=0.5)


def test_cross_server_latency_single_box_has_no_penalty():
    graph = graph_for(["firewall", "monitor"])
    slices, penalty = _placed_penalty_us(graph, cores_per_server=8)
    assert len(slices) == 1
    assert penalty == pytest.approx(0.0, abs=0.01)


def test_link_cost_grows_with_packet_size():
    from repro.multiserver import link_cost_us
    from repro.sim import DEFAULT_PARAMS

    assert link_cost_us(DEFAULT_PARAMS, 1500) > link_cost_us(DEFAULT_PARAMS, 64)
