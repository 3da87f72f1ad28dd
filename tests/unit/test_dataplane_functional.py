"""Unit tests for merge semantics and the functional dataplane."""

import pytest

from repro.core import (
    MergeOp,
    MergeOpKind,
    Orchestrator,
    Policy,
    compile_policy,
)
from repro.dataplane import (
    FunctionalDataplane,
    MergeError,
    SequentialBank,
    SequentialReference,
    apply_merge_ops,
    instantiate_nfs,
    key_digest,
    packet_key,
    pick_instance,
)
from repro.net import Field, build_packet, insert_ah
from repro.nfs import create_nf


def graph_for(chain):
    return compile_policy(Policy.from_chain(chain)).graph


# ---------------------------------------------------------------- merging
def test_modify_op_copies_field_and_fixes_checksum():
    base = build_packet(size=64)
    copy = base.full_copy(2)
    copy.ipv4.src_ip = "9.9.9.9"
    merged = apply_merge_ops(
        {1: base, 2: copy}, [MergeOp(MergeOpKind.MODIFY, Field.SIP, 2)]
    )
    assert merged is base
    assert merged.ipv4.src_ip == "9.9.9.9"
    assert merged.ipv4.verify_checksum()


def test_modify_from_header_only_copy():
    base = build_packet(size=1400)
    copy = base.header_copy(2)
    copy.ipv4.dst_ip = "4.4.4.4"
    merged = apply_merge_ops(
        {1: base, 2: copy}, [MergeOp(MergeOpKind.MODIFY, Field.DIP, 2)]
    )
    assert merged.ipv4.dst_ip == "4.4.4.4"
    assert len(merged.buf) == 1400  # payload untouched


def test_unreferenced_fields_pass_through():
    # Fig. 6: fields not named by any MO keep v1's bytes; other versions'
    # unreferenced fields are discarded.
    base = build_packet(size=64, ttl=44)
    copy = base.full_copy(2)
    copy.ipv4.ttl = 1
    copy.ipv4.src_ip = "9.9.9.9"
    merged = apply_merge_ops(
        {1: base, 2: copy}, [MergeOp(MergeOpKind.MODIFY, Field.SIP, 2)]
    )
    assert merged.ipv4.ttl == 44  # v2's TTL ignored


def test_add_op_splices_ah():
    base = build_packet(size=120, payload=b"hi")
    copy = base.full_copy(2)
    insert_ah(copy, spi=5, seq=9, icv_key=b"k" * 16)
    merged = apply_merge_ops(
        {1: base, 2: copy}, [MergeOp(MergeOpKind.ADD, Field.AH_HEADER, 2)]
    )
    assert merged.has_ah
    assert merged.ah.spi == 5
    assert merged.ipv4.verify_checksum()
    assert merged.wire_len == 120 + 24


def test_remove_op_strips_ah():
    base = build_packet(size=120)
    insert_ah(base, spi=5, seq=9, icv_key=b"k" * 16)
    merged = apply_merge_ops({1: base}, [MergeOp(MergeOpKind.REMOVE, Field.AH_HEADER)])
    assert not merged.has_ah
    assert merged.wire_len == 120


def test_nil_version_discards_packet():
    base = build_packet(size=64)
    nil = base.make_nil()
    assert apply_merge_ops({1: base, 2: nil}, []) is None


def test_merge_requires_version_one():
    with pytest.raises(MergeError):
        apply_merge_ops({2: build_packet(size=64)}, [])


def test_merge_missing_source_version():
    with pytest.raises(MergeError):
        apply_merge_ops(
            {1: build_packet(size=64)}, [MergeOp(MergeOpKind.MODIFY, Field.SIP, 2)]
        )


def test_merge_add_conflicts():
    base = build_packet(size=64)
    copy = base.full_copy(2)
    with pytest.raises(MergeError):  # source has no AH
        apply_merge_ops(
            {1: base, 2: copy}, [MergeOp(MergeOpKind.ADD, Field.AH_HEADER, 2)]
        )
    with pytest.raises(MergeError):  # nothing to remove
        apply_merge_ops({1: base}, [MergeOp(MergeOpKind.REMOVE, Field.AH_HEADER)])


# ---------------------------------------------------- functional dataplane
def test_instantiate_nfs_matches_graph():
    graph = graph_for(["firewall", "monitor"])
    nfs = instantiate_nfs(graph)
    assert set(nfs) == {"firewall", "monitor"}


def test_functional_dataplane_requires_all_instances():
    graph = graph_for(["firewall", "monitor"])
    with pytest.raises(ValueError):
        FunctionalDataplane(graph, nf_instances={"firewall": create_nf("firewall")})


def test_parallel_readers_both_observe_packet():
    graph = graph_for(["firewall", "monitor"])
    plane = FunctionalDataplane(graph)
    out = plane.process(build_packet(size=64))
    assert out is not None
    assert plane.nfs["monitor"].flow_count() == 1
    assert plane.nfs["firewall"].rx_packets == 1


def test_drop_suppresses_output():
    graph = graph_for(["ips", "monitor"])
    plane = FunctionalDataplane(graph)
    signature = plane.nfs["ips"].engine.patterns[0]
    out = plane.process(build_packet(size=200, payload=signature))
    assert out is None
    assert plane.dropped == 1 and plane.emitted == 0


def test_drop_mid_graph_skips_downstream():
    # vpn -> (monitor|firewall) -> lb with a firewall that denies all.
    from repro.nfs import AclRule, Firewall

    graph = graph_for(["vpn", "monitor", "firewall", "loadbalancer"])
    nfs = instantiate_nfs(graph)
    nfs["firewall"] = Firewall(name="firewall", acl=[AclRule(permit=False)])
    plane = FunctionalDataplane(graph, nfs)
    out = plane.process(build_packet(size=128))
    assert out is None
    # The load balancer never saw the packet.
    assert nfs["loadbalancer"].rx_packets == 0
    # The monitor raced the drop and did observe it (paper semantics).
    assert nfs["monitor"].rx_packets == 1


def test_sequential_reference_stops_at_drop():
    from repro.nfs import AclRule, Firewall

    chain = [Firewall(acl=[AclRule(permit=False)]), create_nf("monitor")]
    ref = SequentialReference(chain)
    assert ref.process(build_packet(size=64)) is None
    assert chain[1].rx_packets == 0
    assert ref.dropped == 1


def test_process_many_counts():
    graph = graph_for(["gateway", "monitor"])
    plane = FunctionalDataplane(graph)
    outs = plane.process_many(build_packet(size=64, src_port=i) for i in range(5))
    assert len(outs) == 5
    assert plane.processed == 5 and plane.emitted == 5


def test_add_op_replaces_existing_ah_in_place():
    # A second VPN hop refreshes the AH on its copy; the merge must
    # replace the base's unit rather than stacking a second header.
    base = build_packet(size=120, payload=b"hi")
    insert_ah(base, spi=1, seq=1, icv_key=b"k" * 16)
    copy = base.full_copy(2)
    copy.ah.seq = 99
    merged = apply_merge_ops(
        {1: base, 2: copy}, [MergeOp(MergeOpKind.ADD, Field.AH_HEADER, 2)]
    )
    assert merged.ah.seq == 99
    assert merged.wire_len == 120 + 24  # still exactly one AH


# ---------------------------------------------------------- §7 scale-out
def test_instantiate_nfs_with_scale_uses_instance_labels():
    graph = graph_for(["firewall", "monitor"])
    nfs = instantiate_nfs(graph, scale={"firewall": 2})
    assert set(nfs) == {"firewall#0", "firewall#1", "monitor"}


def test_scaled_functional_plane_routes_flows_by_rss():
    graph = graph_for(["firewall", "monitor"])
    plane = FunctionalDataplane(graph, scale={"monitor": 3})
    packets = [build_packet(size=64, src_ip=f"10.0.{i}.1", src_port=5000 + i)
               for i in range(24)]
    for pkt in packets:
        assert plane.process(pkt) is not None
    # Flow counts partition across monitor instances and every instance
    # matches the shared RSS choice exactly.
    total = 0
    for k in range(3):
        monitor = plane.nfs[f"monitor#{k}"]
        expected = sum(
            1 for pkt in packets
            if pick_instance(key_digest(packet_key(pkt)), 3) == k
        )
        assert monitor.rx_packets == expected
        total += monitor.rx_packets
    assert total == 24
    # The unscaled firewall sees everything.
    assert plane.nfs["firewall"].rx_packets == 24


def test_scaled_functional_plane_rejects_bad_scale():
    graph = graph_for(["firewall", "monitor"])
    with pytest.raises(ValueError):
        FunctionalDataplane(graph, scale=0)
    with pytest.raises(ValueError):
        FunctionalDataplane(graph, scale={"monitor": -1})


def test_sequential_bank_partitions_nat_state_per_instance():
    # Cross-flow NF state (the NAT's arrival-order port allocator) is
    # partitioned by the split: each bank hands out its own port
    # sequence, so bank routing is byte-visible and must match RSS.
    def factory(k):
        return [create_nf("nat", name=f"seq{k}.nat")]

    bank = SequentialBank(factory, instances=2)
    packets = [build_packet(size=64, src_ip=f"10.3.{i}.1", src_port=7000 + i)
               for i in range(12)]
    for pkt in packets:
        expected = pick_instance(key_digest(packet_key(pkt)), 2)
        assert bank.bank_for(pkt) == expected
        assert bank.process(pkt) is not None
    assert bank.processed == 12 and bank.emitted == 12
    assert sum(b.processed for b in bank.banks) == 12
    assert all(b.processed > 0 for b in bank.banks)


def test_sequential_bank_single_instance_matches_reference():
    def chain():
        return [create_nf("monitor", name="m")]

    bank = SequentialBank(lambda k: chain(), instances=1)
    reference = SequentialReference(chain())
    for i in range(6):
        a = bank.process(build_packet(size=64, src_port=6000 + i,
                                      identification=i))
        b = reference.process(build_packet(size=64, src_port=6000 + i,
                                           identification=i))
        assert bytes(a.buf) == bytes(b.buf)
    with pytest.raises(ValueError):
        SequentialBank(lambda k: chain(), instances=0)
