"""The performance lab's hooks still see every plane's merge and copy.

``benchmarks/lab/spans.py`` measures from outside: it replaces
``apply_merge_ops`` and ``assign_instances`` by *module attribute* and
``Packet.header_copy`` / ``full_copy`` / ``five_tuple``,
``NetworkFunction.handle``, ``FunctionalDataplane.process_many``,
``FlowGenerator.next_packet``, ``NFPServer.inject`` and
``ChainingManager.classify`` through the class.  A plane that captured
one of those at install, or reached the merge through a private name,
would still be byte-correct while the lab read
``dataplane.merge_us_per_pkt`` (or ``traffic.gen_us_per_pkt``) as 0.0.
This test installs the lab's own wrappers and counts spans on the
functional plane, the event-driven server, the timed cross-server
pipeline, and a source-driven DES run.
"""

import contextlib

import pytest

from repro.core import Orchestrator, Policy
from repro.core.partition import partition_graph
from repro.dataplane import FunctionalDataplane, NFPServer
from repro.multiserver import TimedMultiServer
from repro.net.packet import Packet
from repro.sim import DEFAULT_PARAMS, Environment
from repro.traffic.generator import FlowGenerator, TrafficSource

spans = pytest.importorskip(
    "benchmarks.lab.spans", reason="run from the repo root (python -m pytest)")

WEST_EAST = ["ids", "monitor", "loadbalancer"]
PACKETS = 10


@contextlib.contextmanager
def lab_wrappers():
    """The lab's wrappers, installed as the lab installs them: *after*
    set-up, so a reference captured at construction escapes them."""
    rec = spans.SpanRecorder()
    spans.install_wrappers(rec, [0])
    try:
        yield rec
    finally:
        rec.uninstall()


def _stream(seed=3):
    return FlowGenerator(num_flows=6, seed=seed).packets(PACKETS)


def _calls(rec):
    return {name: calls for name, (calls, _, _) in rec.by_name().items()}


def test_functional_plane_merges_and_copies_under_the_lab_wrappers():
    graph = Orchestrator().compile(Policy.from_chain(WEST_EAST)).graph
    plane = FunctionalDataplane(graph, scale=4)
    with lab_wrappers() as recorder:
        recorder.patch_method(Packet, "_flow", "net.fields.flow",
                              spans._packet_uid)
        outputs = plane.process_many(_stream())
    calls = _calls(recorder)
    assert plane.emitted == len([o for o in outputs if o is not None]) == PACKETS
    assert calls["dataplane.walk"] == 1
    assert calls["dataplane.merge"] == PACKETS
    assert calls["net.copy.header"] == PACKETS
    assert "net.copy.full" not in calls
    # The lab wraps only ``Packet.five_tuple`` as ``net.fields``, and no
    # one on this path calls it any more: the split, the monitor and the
    # load balancer key on ``flow_key``, whose time the lab books as walk
    # and ``nfs.*`` self time.  The test wraps the walk under it,
    # ``_flow``, the way the lab would.  The plane's entry walk fills the
    # parse memo, so the split's key and the monitor's and the IDS's
    # keys come from it; the load balancer, which rewrites the
    # addresses, loses the key before its visit and reaches ``_flow``
    # through the class: once per packet (it was three, one a key).
    assert "net.fields.five_tuple" not in calls
    assert calls["net.fields.flow"] == PACKETS
    for kind in WEST_EAST:
        assert calls[f"nfs.{kind}"] == PACKETS


def test_two_slice_multiserver_merges_once_per_slice():
    # West-east is one stage and cannot span two servers; a parallel
    # gateway | NAT stage behind it makes two, each slice with a copy
    # and a merger (a sequential slice bypasses its merger, §6.2.1).
    graph = Orchestrator().compile(
        Policy.from_chain(WEST_EAST + ["gateway", "nat"])).graph
    env = Environment()
    multi = TimedMultiServer(env, DEFAULT_PARAMS, graph,
                             partition_graph(graph, 5))
    assert multi.num_servers == 2
    with lab_wrappers() as recorder:
        for pkt in _stream():
            multi.inject(pkt)
        env.run()
    calls = _calls(recorder)
    assert [server.emitted for server in multi.servers] == [PACKETS, PACKETS]
    assert calls["dataplane.merge"] == PACKETS * multi.num_servers
    assert calls["net.copy.header"] + calls.get("net.copy.full", 0) \
        == PACKETS * len(graph.copies) == PACKETS * multi.num_servers


def test_nfp_server_merges_and_copies_under_the_lab_wrappers():
    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS)
    server.deploy(Orchestrator().deploy(Policy.from_chain(WEST_EAST), scale=4))
    with lab_wrappers() as recorder:
        for pkt in _stream():
            server.inject(pkt)
        env.run()
    calls = _calls(recorder)
    assert server.emitted == PACKETS
    assert calls["dataplane.inject"] == PACKETS
    assert calls["dataplane.merge"] == PACKETS
    assert calls["dataplane.assign"] == PACKETS
    assert calls["net.copy.header"] == PACKETS


# 4096 is what the lab's rescale probe passes; the keyword is an inert
# stub, so the classifier walks the CT for every packet either way.
@pytest.mark.parametrize("flow_cache_size", [0, 4096])
def test_source_driven_server_run_is_seen_from_source_to_merge(flow_cache_size):
    # The lab's DES workloads: a TrafficSource pulls next_packet and
    # pushes inject, both looked up when the wrappers are already in.
    flows = 4
    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS, flow_cache_size=flow_cache_size)
    server.deploy(Orchestrator().deploy(Policy.from_chain(WEST_EAST)))
    with lab_wrappers() as recorder:
        source = TrafficSource(env, server.inject, 0.5, PACKETS, seed=3,
                               flows=FlowGenerator(num_flows=flows, seed=3))
        env.run()
    calls = _calls(recorder)
    assert source.offered == server.emitted == PACKETS
    assert calls["traffic.next_packet"] == PACKETS
    assert calls["dataplane.inject"] == PACKETS
    assert calls["dataplane.merge"] == PACKETS
    assert calls["net.copy.header"] == PACKETS
    assert calls["dataplane.classify"] == PACKETS
    assert calls["dataplane.assign"] == PACKETS
