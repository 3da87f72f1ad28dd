"""Unit tests for cross-server parallelism (NSH shim + multi-server plane)."""

import pytest

from repro.core import Orchestrator, Policy
from repro.multiserver import (
    NSH_LEN,
    MultiServerDataplane,
    NshTag,
    decapsulate,
    encapsulate,
    has_nsh,
    slice_merge_ops,
)
from repro.core.partition import partition_graph
from repro.net import PacketMeta, build_packet
from repro.nfs import AclRule, Firewall


def graph_for(chain):
    return Orchestrator().compile(Policy.from_chain(chain)).graph


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


def test_nsh_nil_flag_survives():
    pkt = build_packet(size=64)
    meta = PacketMeta(mid=1, pid=2, version=1)
    encapsulate(pkt, NshTag(1, 1, meta, nil=True))
    assert decapsulate(pkt).nil


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
    assert slice_merge_ops(graph, slices[0]) == graph.merge_ops


def test_slice_merge_ops_split_across_servers():
    # (nat | monitor[v2]) -> vpn split over two servers: monitor's copy
    # merges on server 0 (it has no MOs, being read-only), and v1 alone
    # crosses the link.
    graph = graph_for(["monitor", "nat", "vpn"])
    slices = partition_graph(graph, cores_per_server=4)
    assert len(slices) == 2
    for s in slices:
        local = slice_merge_ops(graph, s)
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
        multi = MultiServerDataplane(graph_for(chain), cores_per_server=5)
        single = FunctionalDataplane(graph_for(chain))
        reference = SequentialReference(
            [create_nf(kind, name=f"ref-{kind}") for kind in chain])
        assert multi.num_servers == 2

        for i in range(count):
            # Same bytes (or the same drop) as one server and as the
            # chain run in order.
            outputs = {
                None if out is None else bytes(out.buf)
                for out in (plane.process(build_packet(identification=i,
                                                       **fields(i)))
                            for plane in (multi, single, reference))
            }
            assert len(outputs) == 1
        for link in multi.links:
            # The paper's constraint: one copy per packet per link, shim
            # overhead a fixed 16 B.
            assert link.frames == count
            assert link.bytes >= count * NSH_LEN


def test_one_frame_per_packet_per_link():
    # The paper's bandwidth constraint: each server sends only one copy.
    graph = graph_for(["ids", "monitor", "loadbalancer", "nat"])
    multi = MultiServerDataplane(graph, cores_per_server=5)
    assert multi.num_servers >= 2
    for i in range(30):
        multi.process(build_packet(src_port=i, size=96, identification=i))
    for link in multi.links:
        assert link.frames == 30


def test_multiserver_drop_suppresses_downstream_work():
    graph = graph_for(["firewall", "monitor", "nat", "vpn"])
    multi = MultiServerDataplane(graph, cores_per_server=4)
    assert multi.num_servers >= 2
    # Replace the firewall with a deny-all instance.
    fw_server = multi.servers[0]
    fw_name = next(n for n in fw_server.nfs if n.startswith("firewall"))
    fw_server.nfs[fw_name] = Firewall(name=fw_name, acl=[AclRule(permit=False)])

    for i in range(10):
        assert multi.process(build_packet(src_port=i, size=96)) is None
    assert multi.dropped == 10
    # Downstream servers never ran their NFs...
    last = multi.servers[-1]
    assert all(nf.rx_packets == 0 for nf in last.nfs.values())
    # ...but every link still saw exactly one (nil) frame per packet.
    for link in multi.links:
        assert link.frames == 10
        assert link.nil_frames == 10


def test_nf_lookup_across_servers():
    graph = graph_for(["monitor", "nat", "vpn"])
    multi = MultiServerDataplane(graph, cores_per_server=4)
    assert multi.nf("monitor").KIND == "monitor"
    with pytest.raises(KeyError):
        multi.nf("ghost")


# --------------------------------------------------------- latency model
def test_cross_server_latency_penalty_is_link_cost():
    from repro.multiserver import estimate_cross_server_latency, link_cost_us
    from repro.sim import DEFAULT_PARAMS

    graph = graph_for(["gateway", "monitor", "nat", "firewall",
                       "loadbalancer", "vpn"])
    estimate = estimate_cross_server_latency(graph, DEFAULT_PARAMS,
                                             cores_per_server=5)
    assert estimate.num_servers == 2
    assert estimate.num_links == 1
    assert estimate.penalty_us > 0
    assert estimate.penalty_us == pytest.approx(
        link_cost_us(DEFAULT_PARAMS, 64), abs=0.5
    )


def test_cross_server_latency_single_box_has_no_penalty():
    from repro.multiserver import estimate_cross_server_latency
    from repro.sim import DEFAULT_PARAMS

    graph = graph_for(["firewall", "monitor"])
    estimate = estimate_cross_server_latency(graph, DEFAULT_PARAMS,
                                             cores_per_server=8)
    assert estimate.num_servers == 1
    assert estimate.penalty_us == pytest.approx(0.0, abs=0.01)


def test_link_cost_grows_with_packet_size():
    from repro.multiserver import link_cost_us
    from repro.sim import DEFAULT_PARAMS

    assert link_cost_us(DEFAULT_PARAMS, 1500) > link_cost_us(DEFAULT_PARAMS, 64)
