"""Unit tests for the batched/vectorized dataplane.

Output parity against the functional plane is the differential fuzzer's
job (``--batched``); what belongs here are the plane's own mechanics:
batch chunking, flow-classification amortization via the batch memo and
the LRU cache, SoA metadata stamping, PID allocation order, keyless
traffic pinning, and the flow-key/parsed-key agreement.
"""

import pytest

from repro.dataplane import BatchedDataplane, FunctionalDataplane
from repro.dataplane.flowsplit import flow_key
from repro.eval.forced import forced_parallel, forced_sequential
from repro.net import PacketMeta, build_packet
from repro.traffic import FlowGenerator


def _packets(count=64, flows=8, seed=3):
    return FlowGenerator(num_flows=flows, seed=seed).packets(count)


def test_batch_size_must_be_positive():
    with pytest.raises(ValueError):
        BatchedDataplane(forced_sequential(["firewall"]), batch_size=0)


def test_outputs_align_with_inputs_across_chunks():
    graph = forced_sequential(["firewall", "monitor"])
    plane = BatchedDataplane(graph, batch_size=5)
    packets = _packets(23)
    outputs = plane.process_many(packets)
    assert len(outputs) == len(packets)
    assert plane.processed == 23
    assert plane.emitted + plane.dropped + plane.no_match == 23


def test_ct_walks_amortize_to_distinct_flows():
    graph = forced_sequential(["firewall"])
    plane = BatchedDataplane(graph, batch_size=16)
    plane.process_many(_packets(count=96, flows=6))
    # 96 packets over 6 flows: the CT/FT walk ran once per flow, not
    # once per packet -- the amortization the batch refactor is for.
    assert plane.processed == 96
    assert plane.ct_walks == 6


def test_flow_cache_survives_across_batches():
    graph = forced_sequential(["firewall"])
    plane = BatchedDataplane(graph, batch_size=4)
    packets = _packets(count=32, flows=8)
    plane.process_many(packets)
    walks_after_first_pass = plane.ct_walks
    plane.process_many(packets)
    assert plane.ct_walks == walks_after_first_pass  # all warm hits


def test_pids_allocate_in_arrival_order():
    graph = forced_sequential(["forwarder"])
    plane = BatchedDataplane(graph, batch_size=7)
    outputs = plane.process_many(_packets(20))
    pids = [pkt.meta.pid for pkt in outputs if pkt is not None]
    assert pids == list(range(1, len(pids) + 1))
    for pkt in outputs:
        if pkt is not None:
            assert isinstance(pkt.meta, PacketMeta)
            assert pkt.meta.mid == plane.mid
            assert pkt.meta.version == 1


def _arp_frame():
    """A frame with a non-IPv4 ethertype (no flow key)."""
    pkt = build_packet()
    pkt.buf[12], pkt.buf[13] = 0x08, 0x06
    return pkt


def test_keyless_traffic_shares_one_pinned_decision():
    graph = forced_sequential(["forwarder"])
    plane = BatchedDataplane(graph, scale=2)
    # Non-IPv4 frames have no flow key: they pin to instance 0 through
    # a single shared decision (one walk, however many packets).
    frames = [_arp_frame() for _ in range(6)]
    outputs = plane.process_many(frames)
    assert plane.ct_walks == 1
    # The batch-local memo absorbs the repeats; the cache sees one
    # bypass for the whole (single-batch) burst.
    assert plane.flow_cache.bypasses == 1
    # Whatever the NF decides about non-IP frames, the scalar plane must
    # decide identically (here: the forwarder drops them).
    want = FunctionalDataplane(forced_sequential(["forwarder"]),
                               scale=2).process_many(
        [_arp_frame() for _ in range(6)])
    assert [pkt is None for pkt in outputs] == [pkt is None for pkt in want]


def test_flow_key_agrees_with_parsed_five_tuple():
    # The plane keys its batch memo and LRU cache on flow_key(pkt), which
    # must identify the flow exactly as the parsed 5-tuple does.
    plane = BatchedDataplane(forced_sequential(["firewall"]))
    packets = _packets(count=48, flows=12)
    seen = set()
    for pkt in packets:
        key = flow_key(pkt)
        assert key is not None and key == pkt.five_tuple()
        seen.add(key)
    assert len(seen) == 12
    plane.process_many(packets)
    assert set(plane.flow_cache.keys()) == seen


def test_flow_key_is_none_for_non_ip_frames():
    plane = BatchedDataplane(forced_sequential(["firewall"]))
    assert flow_key(_arp_frame()) is None
    plane.process_many([_arp_frame()])
    assert plane.flow_cache.bypasses == 1 and len(plane.flow_cache) == 0


def test_scaled_plane_matches_functional_on_copy_graph():
    # Belt-and-braces beyond the fuzzer: a copy-bearing graph at scale 2
    # emits byte-identical packets from both planes.
    factory = lambda: forced_parallel(["firewall", "firewall"],
                                      with_copy=True)
    scalar = FunctionalDataplane(factory(), scale=2)
    plane = BatchedDataplane(factory(), scale=2, batch_size=6)
    want = scalar.process_many(_packets(40))
    got = plane.process_many(_packets(40))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a is None) == (b is None)
        if a is not None:
            assert bytes(a.buf) == bytes(b.buf)
    assert plane.counters.copies_full + plane.counters.copies_header > 0
