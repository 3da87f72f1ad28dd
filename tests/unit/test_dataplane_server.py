"""Unit tests for the timed DES dataplane (classifier/runtime/merger)."""

import dataclasses

import pytest

from repro.core import CompiledGraph, Orchestrator, Policy
from repro.dataplane import ChainingManager, NFPServer, SequentialReference
from repro.dataplane.runtimes import FlightState
from repro.eval import deployed_from_graph, forced_parallel, forced_sequential
from repro.net import PacketMeta, build_packet
from repro.sim import DEFAULT_PARAMS, Environment
from repro.nfs import AclRule, Firewall, NetworkFunction, create_nf
from repro.traffic import feed_list


def make_server(target, num_mergers=1, nf_factory=None):
    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS, num_mergers=num_mergers,
                       nf_factory=nf_factory)
    if hasattr(target, "stages"):
        deployed = deployed_from_graph(target)
    else:
        deployed = Orchestrator().deploy(target)
    server.deploy(deployed)
    return env, server


def drive(env, server, count=50, gap=1.0, size=64, payload=b""):
    packets = [build_packet(src_ip=f"10.0.0.{i % 10 + 1}", src_port=1000 + i,
                            size=size, payload=payload, identification=i)
               for i in range(count)]
    feed_list(env, server.inject, packets, gap)
    env.run()


# -------------------------------------------------------------- chaining
def test_chaining_manager_install_and_lookup():
    manager = ChainingManager()
    deployed = Orchestrator().deploy(Policy.from_chain(["firewall", "monitor"]))
    manager.install(deployed.tables)
    assert manager.mids() == [deployed.mid]
    assert manager.graph_for(deployed.mid) is deployed.graph
    assert manager.classify(None) is not None  # keyless: the wildcard row
    assert manager.compiled_for(deployed.mid).by_nf["firewall"]
    with pytest.raises(KeyError):
        manager.graph_for(999)
    with pytest.raises(KeyError):
        manager.compiled_for(deployed.mid).by_nf["ghost"]


# ------------------------------------------------------------- sequential
def test_sequential_chain_delivers_all_packets():
    env, server = make_server(Policy.from_chain(["nat", "loadbalancer"]))
    server.keep_packets = True
    drive(env, server, count=40)
    assert server.rate.delivered == 40
    assert server.lost == 0
    out = server.emitted_packets[0]
    assert out.ipv4.src_ip == server.nfs["loadbalancer"].vip


def test_sequential_graph_bypasses_merger():
    env, server = make_server(forced_sequential(["firewall", "monitor"]))
    drive(env, server, count=30)
    assert server.mergers[0].merged == 0
    assert server.rate.delivered == 30


# --------------------------------------------------------------- parallel
def test_parallel_graph_merges_every_packet():
    env, server = make_server(Policy.from_chain(["ids", "monitor", "loadbalancer"]))
    drive(env, server, count=30, size=128)
    assert server.rate.delivered == 30
    assert server.mergers[0].merged == 30
    assert server.mergers[0].at == {}  # accumulating table drained


def test_parallel_copy_graph_output_matches_functional():
    from repro.dataplane import FunctionalDataplane

    policy = Policy.from_chain(["ids", "monitor", "loadbalancer"])
    orch = Orchestrator()
    deployed = orch.deploy(policy)

    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS)
    server.deploy(deployed)
    server.keep_packets = True
    drive(env, server, count=20, size=96)

    reference = FunctionalDataplane(orch.compile(policy).graph)
    for i, out in enumerate(sorted(server.emitted_packets,
                                   key=lambda p: p.meta.pid)):
        pkt = build_packet(src_ip=f"10.0.0.{i % 10 + 1}", src_port=1000 + i,
                           size=96, identification=i)
        expected = reference.process(pkt)
        assert bytes(out.buf) == bytes(expected.buf)


def test_metadata_tagged_with_graph_mid():
    env, server = make_server(Policy.from_chain(["firewall", "monitor"]))
    server.keep_packets = True
    drive(env, server, count=5)
    pids = {p.meta.pid for p in server.emitted_packets}
    assert len(pids) == 5
    assert {p.meta.mid for p in server.emitted_packets} == {1}


# ------------------------------------------------------------------ drops
def test_drop_produces_nil_and_no_output():
    def factory(kind, name):
        if kind == "firewall":
            return Firewall(name=name, acl=[AclRule(permit=False)])
        return create_nf(kind, name=name)

    env, server = make_server(
        Policy.from_chain(["firewall", "monitor"]), nf_factory=factory
    )
    drive(env, server, count=25)
    assert server.rate.delivered == 0
    assert server.nil_dropped == 25
    assert server.mergers[0].discarded == 25
    assert server.mergers[0].at == {}


def test_drop_mid_graph_propagates_nil():
    def factory(kind, name):
        if kind == "firewall":
            return Firewall(name=name, acl=[AclRule(permit=False)])
        return create_nf(kind, name=name)

    env, server = make_server(
        Policy.from_chain(["vpn", "monitor", "firewall", "loadbalancer"]),
        nf_factory=factory,
    )
    drive(env, server, count=10, size=128)
    assert server.rate.delivered == 0
    assert server.nil_dropped == 10
    # The LB runtime saw only nil packets (it never processed one).
    assert server.nfs["loadbalancer"].rx_packets == 0


# ----------------------------------------------------------------- merger
def test_merger_load_balancing_across_instances():
    env, server = make_server(
        forced_parallel(["firewall", "firewall"], with_copy=False), num_mergers=2
    )
    drive(env, server, count=40)
    merged = [m.merged for m in server.mergers]
    assert sum(merged) == 40
    # Sequential PIDs alternate across instances.
    assert merged[0] == merged[1] == 20


def test_same_pid_notifications_reach_same_merger():
    env, server = make_server(
        forced_parallel(["firewall", "monitor"], with_copy=False), num_mergers=2
    )
    drive(env, server, count=30)
    # Every packet merged exactly once; no AT entry stuck half-filled.
    assert sum(m.merged for m in server.mergers) == 30
    assert all(m.at == {} for m in server.mergers)


def test_overload_counts_losses():
    env, server = make_server(Policy.from_chain(["ids", "monitor", "loadbalancer"]))
    # IDS capacity ~1.4 Mpps; offer 10x that.
    drive(env, server, count=3000, gap=0.07)
    assert server.lost > 0
    assert server.rate.delivered < 3000


def test_latency_grows_with_chain_length():
    env1, s1 = make_server(forced_sequential(["firewall"]))
    drive(env1, s1, count=60, gap=2.0)
    env3, s3 = make_server(forced_sequential(["firewall"] * 3))
    drive(env3, s3, count=60, gap=2.0)
    assert s3.latency.mean > s1.latency.mean


def test_pool_accounts_copies():
    env, server = make_server(Policy.from_chain(["ids", "monitor", "loadbalancer"]))
    drive(env, server, count=20, size=640)
    # One 64 B header copy per 640 B packet -> 10% overhead.
    assert server.pool.copy_overhead_fraction() == pytest.approx(0.1, abs=0.01)


def test_flight_state_cleanup():
    env, server = make_server(Policy.from_chain(["firewall", "monitor"]))
    drive(env, server, count=15)
    assert server._flight == {}


def test_flight_state_structure():
    pkt = build_packet(size=64)
    graph = Orchestrator().compile(Policy.from_chain(["firewall", "monitor"])).graph
    compiled = CompiledGraph(graph)
    state = FlightState(pkt, compiled)
    assert state.versions == {1: pkt}
    assert state.dropped == set()
    assert state.barriers == {}
    # What every completion reads of the record the packet started under.
    assert state.compiled is compiled and state.steps is compiled.by_nf
    assert state.merged is compiled.needs_merger is True


# ------------------------------------------------------- burst hand-off
class BurstLog(NetworkFunction):
    """A monitor stand-in that logs each burst it is handed and raises
    on the third packet it serves."""

    KIND = "monitor"

    def __init__(self, name=None):
        super().__init__(name)
        self.bursts = []
        self.served = 0

    def handle_burst(self, pkts):
        self.bursts.append(list(pkts))
        return super().handle_burst(pkts)

    def process(self, pkt, ctx):
        self.served += 1
        if self.served == 3:
            raise RuntimeError("third packet")


def test_commit_hands_the_nf_its_live_packets_in_ring_order():
    env, server = make_server(forced_sequential(["monitor"]),
                              nf_factory=lambda kind, name: BurstLog(name))
    server.keep_packets = True
    mid = server.chaining.mids()[0]
    compiled = server.chaining.compiled_for(mid)
    runtime = server.runtimes["monitor0"].instances[0]
    batch = []
    for pid in range(1, 9):
        pkt = build_packet(src_port=1000 + pid, identification=pid)
        pkt.meta = PacketMeta(mid=mid, pid=pid)
        pkt.ingress_us = 0.0
        server._flight[(mid, pid)] = FlightState(pkt, compiled)
        server.pool.alloc(len(pkt.buf))
        batch.append(pkt)
    batch[1] = batch[1].make_nil()  # an upstream drop: still in flight
    server._flight[(mid, 2)].dropped.add(1)
    del server._flight[(mid, 5)]  # already accounted (a stale reference)
    server.pool.free(len(batch[4].buf))
    live = [batch[i] for i in (0, 2, 3, 5, 6, 7)]

    runtime._commit(batch, env.now)
    env.run()

    assert runtime.nf.bursts == [live]
    assert runtime.nf.errors == 1
    # The raising (third live) packet and the nil are dropped; the rest forward.
    assert [p.meta.pid for p in server.emitted_packets] == [1, 3, 6, 7, 8]
    assert server.nil_dropped == 2
    assert server._flight == {}


@pytest.mark.parametrize("batch_size", (1, 32))
def test_nat_vpn_through_the_server_matches_the_sequential_reference(batch_size):
    params = dataclasses.replace(DEFAULT_PARAMS, batch_size=batch_size)
    env = Environment()
    server = NFPServer(env, params)
    server.deploy(Orchestrator().deploy(Policy.from_chain(["nat", "vpn"])))
    server.keep_packets = True
    sizes = [64, 80, 1500, 54, 600, 2048, 66, 128]

    def frames():
        frames = []
        for i in range(120):
            size = sizes[i % len(sizes)]
            frames.append(build_packet(
                src_ip=f"10.0.0.{i % 10 + 1}", src_port=1000 + i, size=size,
                identification=i, payload=bytes([i & 0xFF]) * min(10, size - 54)))
        return frames

    vpn = server.nfs["vpn"]
    bursts = []

    def logged(pkts, handle_burst=vpn.handle_burst):
        bursts.append(len(pkts))
        return handle_burst(pkts)

    vpn.handle_burst = logged
    feed_list(env, server.inject, frames(), 0.5)
    env.run()
    reference = SequentialReference([create_nf("nat"), create_nf("vpn")])
    expected = [bytes(out.buf) for out in reference.process_many(frames())]
    got = sorted(server.emitted_packets, key=lambda p: p.meta.pid)
    assert [bytes(p.buf) for p in got] == expected
    assert vpn.seq == sum(bursts) == 120
    # The offered load queues at the VPN: at 32 it is handed real bursts.
    assert max(bursts) == 1 if batch_size == 1 else max(bursts) > 1
