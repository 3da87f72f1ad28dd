"""Unit tests for the baselines (OpenNetVM, BESS) and traffic generation."""

import pytest

from repro.baselines import BessServer, OpenNetVMServer
from repro.core import Orchestrator, Policy
from repro.dataplane import NFPServer
from repro.net import build_packet
from repro.sim import DEFAULT_PARAMS, Environment
from repro.traffic import (
    DATACENTER_MIX,
    FIXED_64B,
    FlowGenerator,
    PacketSizeDistribution,
    TrafficSource,
    feed_list,
)
from repro.nfs import AclRule, Firewall


def drive(env, server, count=40, gap=1.0, size=64):
    packets = [build_packet(src_ip=f"10.0.0.{i % 9 + 1}", src_port=2000 + i,
                            size=size, identification=i)
               for i in range(count)]
    feed_list(env, server.inject, packets, gap)
    env.run()


# ------------------------------------------------------- ingress stamping
def _nfp(env):
    server = NFPServer(env, DEFAULT_PARAMS)
    server.deploy(Orchestrator().deploy(Policy.from_chain(["monitor"])))
    return server


@pytest.mark.parametrize("make", [
    _nfp,
    lambda env: OpenNetVMServer(env, DEFAULT_PARAMS, ["monitor"]),
    lambda env: BessServer(env, DEFAULT_PARAMS, ["monitor"]),
], ids=["nfp", "opennetvm", "bess"])
def test_inject_stamps_unset_ingress_only_and_zero_is_a_time(make):
    env = Environment(initial_time=5.0)
    server = make(env)
    fresh = build_packet()
    at_zero = build_packet()
    at_zero.ingress_us = 0.0  # stamped by a source at model time 0
    assert fresh.ingress_us < 0.0
    assert fresh.full_copy(2).ingress_us == fresh.ingress_us
    server.inject(fresh)
    server.inject(at_zero)
    assert fresh.ingress_us == 5.0
    assert at_zero.ingress_us == 0.0


# -------------------------------------------------------------- OpenNetVM
def test_onvm_chain_delivers_in_order_through_manager():
    env = Environment()
    server = OpenNetVMServer(env, DEFAULT_PARAMS, ["firewall", "monitor"])
    server.keep_packets = True
    drive(env, server, count=30)
    assert server.rate.delivered == 30
    assert server.lost == 0
    assert server.nfs[1].nf.flow_count() == 30


def test_onvm_validates_inputs():
    env = Environment()
    with pytest.raises(ValueError):
        OpenNetVMServer(env, DEFAULT_PARAMS, [])
    with pytest.raises(ValueError):
        OpenNetVMServer(env, DEFAULT_PARAMS, ["firewall"], nf_instances=[])


def test_onvm_drop_terminates_chain():
    env = Environment()
    server = OpenNetVMServer(
        env, DEFAULT_PARAMS, ["firewall", "monitor"],
        nf_instances=[Firewall(acl=[AclRule(permit=False)]),
                      __import__("repro.nfs", fromlist=["Monitor"]).Monitor()],
    )
    drive(env, server, count=10)
    assert server.rate.delivered == 0
    assert server.nil_dropped == 10


def test_onvm_cores_accounting():
    env = Environment()
    server = OpenNetVMServer(env, DEFAULT_PARAMS, ["firewall"] * 3)
    assert server.cores_used == 4  # 3 NFs + manager


def test_onvm_latency_grows_with_chain():
    env1 = Environment()
    s1 = OpenNetVMServer(env1, DEFAULT_PARAMS, ["firewall"])
    drive(env1, s1, count=40, gap=2.0)
    env3 = Environment()
    s3 = OpenNetVMServer(env3, DEFAULT_PARAMS, ["firewall"] * 3)
    drive(env3, s3, count=40, gap=2.0)
    assert s3.latency.mean > s1.latency.mean


# ------------------------------------------------------------------- BESS
def test_bess_processes_chain_run_to_completion():
    env = Environment()
    server = BessServer(env, DEFAULT_PARAMS, ["firewall", "monitor"], num_cores=2)
    server.keep_packets = True
    drive(env, server, count=30)
    assert server.rate.delivered == 30
    assert server.cores_used == 2
    # Flows were RSS-hashed over both cores.
    per_core = [c.nfs[1].flow_count() for c in server.cores]
    assert sum(per_core) == 30
    assert all(count > 0 for count in per_core)


def test_bess_drop_inside_chain():
    env = Environment()
    server = BessServer(env, DEFAULT_PARAMS, ["ips", "monitor"], num_cores=1)
    sig = server.cores[0].nfs[0].engine.patterns[0]

    server.inject(build_packet(size=256, payload=sig))
    env.run()
    assert server.nil_dropped == 1
    assert server.rate.delivered == 0


def test_bess_validates_inputs():
    env = Environment()
    with pytest.raises(ValueError):
        BessServer(env, DEFAULT_PARAMS, [])
    with pytest.raises(ValueError):
        BessServer(env, DEFAULT_PARAMS, ["firewall"], num_cores=0)


def test_bess_latency_below_pipelined():
    env_b = Environment()
    bess = BessServer(env_b, DEFAULT_PARAMS, ["firewall"] * 3, num_cores=5)
    drive(env_b, bess, count=50, gap=2.0)
    env_o = Environment()
    onvm = OpenNetVMServer(env_o, DEFAULT_PARAMS, ["firewall"] * 3)
    drive(env_o, onvm, count=50, gap=2.0)
    assert bess.latency.mean < onvm.latency.mean


# ---------------------------------------------------------------- traffic
def test_size_distribution_sampling_and_mean():
    dist = PacketSizeDistribution([(64, 0.5), (1500, 0.5)])
    assert dist.mean() == pytest.approx(782.0)
    import random

    rng = random.Random(1)
    samples = {dist.sample(rng) for _ in range(100)}
    assert samples == {64, 1500}


def test_size_distribution_validation():
    with pytest.raises(ValueError):
        PacketSizeDistribution([])
    with pytest.raises(ValueError):
        PacketSizeDistribution([(30, 1.0)])
    with pytest.raises(ValueError):
        PacketSizeDistribution([(64, -1.0)])
    with pytest.raises(ValueError):
        PacketSizeDistribution([(64, 0.0)])


def test_datacenter_mix_mean_is_724():
    # §4.2: "the average packet size in data centers is around 724 bytes".
    assert DATACENTER_MIX.mean() == pytest.approx(724, abs=2)


def test_flow_generator_deterministic():
    a = FlowGenerator(num_flows=8, seed=3)
    b = FlowGenerator(num_flows=8, seed=3)
    for _ in range(20):
        assert bytes(a.next_packet().buf) == bytes(b.next_packet().buf)


def test_flow_generator_cycles_flows():
    gen = FlowGenerator(num_flows=4, sizes=FIXED_64B)
    tuples = {gen.next_packet().five_tuple() for _ in range(8)}
    assert len(tuples) == 4


def test_flow_generator_payload_fn():
    gen = FlowGenerator(
        num_flows=1,
        sizes=PacketSizeDistribution([(128, 1.0)]),
        payload_fn=lambda seq: b"seq-%04d" % seq,
    )
    assert gen.next_packet().payload.startswith(b"seq-0001")


def test_traffic_source_rate_and_count():
    env = Environment()
    arrivals = []
    source = TrafficSource(
        env, lambda pkt: arrivals.append(env.now), rate_mpps=1.0,
        count=64, poisson=False,
    )
    env.run()
    assert source.offered == 64
    assert len(arrivals) == 64
    # 2 bursts of 32, spaced 32 us: total span 32 us.
    assert arrivals[-1] == pytest.approx(32.0)


def test_traffic_source_validation():
    env = Environment()
    with pytest.raises(ValueError):
        TrafficSource(env, lambda p: None, rate_mpps=0, count=1)
    with pytest.raises(ValueError):
        TrafficSource(env, lambda p: None, rate_mpps=1, count=0)
