"""Integration: the timed DES server against the analytic model and the
functional reference."""

from dataclasses import replace

import pytest

from repro.core import Orchestrator, Policy
from repro.dataplane import FunctionalDataplane, NFPServer
from repro.eval import (
    deployed_from_graph,
    forced_parallel,
    forced_sequential,
    measure_bess,
    measure_nfp,
    measure_onvm,
    nfp_capacity,
)
from repro.sim import DEFAULT_PARAMS, Environment
from repro.traffic import FlowGenerator, TrafficSource


def test_des_lossless_at_90pct_of_analytic_capacity():
    graph = forced_parallel(["firewall", "firewall"], with_copy=False)
    capacity = nfp_capacity(graph, DEFAULT_PARAMS)

    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS)
    server.deploy(deployed_from_graph(graph))
    TrafficSource(env, server.inject, capacity.mpps * 0.9, 4000,
                  flows=FlowGenerator(num_flows=64))
    env.run()
    assert server.lost == 0
    assert server.rate.delivered == 4000


def test_des_loses_packets_beyond_capacity():
    graph = forced_sequential(["ids"])
    capacity = nfp_capacity(graph, DEFAULT_PARAMS)

    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS)
    server.deploy(deployed_from_graph(graph))
    TrafficSource(env, server.inject, capacity.mpps * 3.0, 6000,
                  flows=FlowGenerator(num_flows=64))
    env.run()
    assert server.lost > 0


def test_des_outputs_byte_identical_to_functional_reference():
    policy = Policy.from_chain(["vpn", "monitor", "firewall", "loadbalancer"])
    orch = Orchestrator()
    deployed = orch.deploy(policy)

    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS)
    server.deploy(deployed)
    server.keep_packets = True
    flows = FlowGenerator(num_flows=16, seed=5)
    TrafficSource(env, server.inject, 0.5, 60, flows=flows, poisson=False)
    env.run()

    reference = FunctionalDataplane(orch.compile(policy).graph)
    ref_flows = FlowGenerator(num_flows=16, seed=5)
    expected = [reference.process(ref_flows.next_packet()) for _ in range(60)]

    produced = sorted(server.emitted_packets, key=lambda p: p.meta.pid)
    assert len(produced) == sum(1 for e in expected if e is not None)
    for out, exp in zip(produced, (e for e in expected if e is not None)):
        assert bytes(out.buf) == bytes(exp.buf)


def test_measure_nfp_returns_consistent_result():
    result = measure_nfp(["firewall", "monitor"], packets=800)
    assert result.system == "NFP"
    assert result.delivered > 0
    assert result.lost == 0
    assert result.latency_p50_us <= result.latency_p99_us
    assert result.throughput_mpps > 5
    assert result.cores_used == 2 + 2  # 2 NFs + classifier + merger


def test_measure_accepts_policy_graph_or_chain():
    from repro.eval import as_graph

    policy = Policy.from_chain(["firewall", "monitor"])
    graph = as_graph(policy)
    assert as_graph(graph) is graph
    assert as_graph(["firewall", "monitor"]).describe() == graph.describe()


def test_three_systems_capacity_ordering():
    # Table 4's headline: ONVM < NFP < BESS in throughput for firewall
    # chains with n+2 cores.
    chain = ["firewall"] * 3
    onvm = measure_onvm(chain, packets=500)
    nfp = measure_nfp(forced_parallel(chain, with_copy=False), packets=500)
    bess = measure_bess(chain, num_cores=5, packets=500)
    assert onvm.throughput_mpps < nfp.throughput_mpps < bess.throughput_mpps
    assert bess.latency_mean_us < nfp.latency_mean_us < onvm.latency_mean_us


def test_two_graphs_coexist_on_one_server():
    orch = Orchestrator()
    a = orch.deploy(Policy.from_chain(["firewall", "monitor"], name="a"),
                    match=("10.0.0.1", "10.200.0.1", 6, 10000, 443))
    b = orch.deploy(Policy.from_chain(["gateway", "caching"], name="b"))

    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS)
    server.deploy(a)
    server.deploy(b)
    flows = FlowGenerator(num_flows=4, seed=1)
    TrafficSource(env, server.inject, 0.5, 40, flows=flows, poisson=False)
    env.run()
    assert server.rate.delivered == 40
    mids = {a.mid, b.mid}
    assert set(server.chaining.mids()) == mids


@pytest.mark.parametrize("measure", [measure_nfp, measure_onvm, measure_bess])
def test_every_server_delivers_everything_in_bursts_of_one(measure):
    params = replace(DEFAULT_PARAMS, batch_size=1)
    result = measure(["firewall", "monitor"], params=params, packets=300)
    assert (result.delivered, result.lost, result.nil_dropped) == (300, 0, 0)
