"""Integration: the timed (DES) cross-server pipeline."""

import itertools

import pytest

from repro.core import Orchestrator, Policy
from repro.dataplane import NFPServer, SequentialReference
from repro.eval import deployed_from_graph
from repro.eval.experiments import NORTH_SOUTH_CHAIN
from repro.multiserver import TimedMultiServer, has_nsh
from repro.multiserver.latency import link_cost_us
from repro.core.partition import partition_at, partition_graph, slice_subgraph
from repro.net.packet import Packet
from repro.nfs import create_nf
from repro.sim import DEFAULT_PARAMS, Environment
from repro.traffic import DATACENTER_MIX, FlowGenerator, TrafficSource

CHAIN = ["gateway", "monitor", "nat", "firewall", "loadbalancer", "vpn"]


def compiled():
    return Orchestrator().compile(Policy.from_chain(CHAIN)).graph


def run_single(graph, count=400, rate=0.5, seed=4, keep=False):
    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS)
    server.deploy(deployed_from_graph(graph))
    server.keep_packets = keep
    TrafficSource(env, server.inject, rate, count,
                  flows=FlowGenerator(num_flows=16, seed=seed), seed=seed)
    env.run()
    return server


def run_multi(graph, count=400, rate=0.5, seed=4, cores=5, keep=False):
    env = Environment()
    multi = TimedMultiServer(env, DEFAULT_PARAMS, graph,
                             partition_graph(graph, cores))
    multi.tail.keep_packets = keep
    TrafficSource(env, multi.inject, rate, count,
                  flows=FlowGenerator(num_flows=16, seed=seed), seed=seed)
    env.run()
    return multi


def test_slice_subgraph_rebases_copies_and_merges():
    graph = compiled()
    slices = partition_graph(graph, cores_per_server=5)
    subs = [slice_subgraph(graph, s) for s in slices]
    assert sum(len(sub.nf_names()) for sub in subs) == len(graph.nf_names())
    for sub in subs:
        # Every copy spec points at a stage inside the sub-graph.
        for copy in sub.copies:
            assert 0 <= copy.stage_index < len(sub.stages)
        sub_versions = sub.versions()
        for op in sub.merge_ops:
            assert op.src_version in sub_versions


def test_timed_multiserver_delivers_everything():
    multi = run_multi(compiled())
    assert multi.num_servers == 2
    assert multi.delivered == 400
    assert multi.lost == 0
    assert multi.links[0].frames == 400


def test_timed_multiserver_outputs_match_single_box():
    graph = compiled()
    single = run_single(graph, keep=True)
    multi = run_multi(compiled(), keep=True)
    assert len(multi.tail.emitted_packets) == len(single.emitted_packets)
    singles = {bytes(p.buf) for p in single.emitted_packets}
    for pkt in multi.tail.emitted_packets:
        assert bytes(pkt.buf) in singles


def test_timed_multiserver_latency_penalty_near_model():
    graph = compiled()
    single = run_single(graph)
    multi = run_multi(compiled())
    penalty = multi.tail.latency.mean - single.latency.mean
    assert penalty > 0
    # Within a few microseconds of the closed-form link cost at the
    # measured size mix (64 B + shim).
    assert penalty == pytest.approx(link_cost_us(DEFAULT_PARAMS, 64), abs=6.0)


def test_timed_multiserver_end_to_end_timestamps():
    multi = run_multi(compiled(), count=100)
    # Latency is end-to-end (ingress at server 0), so it must exceed any
    # single slice's internal floor plus the link.
    assert multi.tail.latency.mean > link_cost_us(DEFAULT_PARAMS, 64)


def test_timed_multiserver_core_accounting():
    multi = run_multi(compiled())
    # Each server: its NFs + classifier + merger.
    per_server = [s.cores_used for s in multi.servers]
    assert sum(per_server) == multi.cores_used
    for server, server_slice in zip(multi.servers, multi.slices):
        assert server.cores_used == server_slice.nf_cores + 2


@pytest.mark.parametrize("inject_at_us", [0.0, 1.0])
def test_latency_spans_every_server_whatever_the_injection_time(inject_at_us):
    # 0.0 is a legal model time (the whole first burst of every
    # TrafficSource): a downstream server must not take ingress_us == 0.0
    # for "unset" and re-stamp the packet at its own NIC.
    graph = Orchestrator().compile(Policy.from_chain(
        ["firewall", "monitor", "loadbalancer", "nat"])).graph
    env = Environment()
    multi = TimedMultiServer(env, DEFAULT_PARAMS, graph,
                             partition_graph(graph, 4))
    assert multi.num_servers == 2
    env.call_later(inject_at_us, multi.inject,
                   FlowGenerator(num_flows=1, seed=1).next_packet())
    env.run()
    assert multi.delivered == 1
    with pytest.warns(UserWarning, match="warm-up skip is empty"):
        assert multi.tail.latency.mean == pytest.approx(69.0, abs=0.01)


def _every_cut(chain):
    """(chain, cut vector) for every legal ``partition_at`` cut."""
    graph = Orchestrator().compile(Policy.from_chain(chain)).graph
    stages = range(1, len(graph.stages))
    return [(chain, cuts) for count in range(len(graph.stages))
            for cuts in itertools.combinations(stages, count)]


EVERY_CUT = [case for chain in (list(NORTH_SOUTH_CHAIN), CHAIN,
                                ["firewall", "monitor", "nat", "vpn"])
             for case in _every_cut(chain)]


@pytest.mark.parametrize(
    "chain,cuts", EVERY_CUT,
    ids=[f"{'>'.join(chain)}@{'-'.join(map(str, cuts)) or 'none'}"
         for chain, cuts in EVERY_CUT])
def test_every_cut_matches_the_sequential_chain(chain, cuts):
    # The data-center size mix puts 64 B frames right behind 1,500 B
    # ones: a link that let a short frame overtake a long one would hand
    # a NAT or VPN behind the cut its packets out of order, and their
    # ports and AH sequence numbers would follow arrival order.
    graph = Orchestrator().compile(Policy.from_chain(chain)).graph
    env = Environment()
    multi = TimedMultiServer(env, DEFAULT_PARAMS, graph,
                             partition_at(graph, cuts))
    multi.tail.keep_packets = True
    offered = []

    def inject(pkt):
        offered.append(Packet(bytearray(pkt.buf)))
        multi.inject(pkt)

    TrafficSource(env, inject, 0.5, 400, seed=4, flows=FlowGenerator(
        num_flows=16, sizes=DATACENTER_MIX, seed=4))
    env.run()

    reference = SequentialReference(
        [create_nf(kind, name=f"ref-{kind}") for kind in chain])
    want = {}
    for pkt in offered:
        out = reference.process(pkt)
        if out is not None:
            want[pkt.ipv4.identification] = bytes(out.buf)
    emitted = multi.tail.emitted_packets
    assert len(emitted) == len(want)
    assert {pkt.ipv4.identification: bytes(pkt.buf)
            for pkt in emitted} == want
    assert multi.lost == 0
    assert not any(has_nsh(pkt) for pkt in emitted)
    for link, upstream in zip(multi.links, multi.servers):
        assert link.frames == upstream.emitted
