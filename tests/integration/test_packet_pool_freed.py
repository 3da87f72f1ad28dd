"""The packet pool is a bounded resource: every slot comes back.

``NFPServer`` allocates a slot per injected packet and per copy made.
Each must be freed where the packet's flight entry is popped (emit, drop,
flight sweep) or where the packet is refused before classification --
otherwise the pool only fills, and after ``capacity`` allocations every
``alloc`` raises.  A pool far smaller than the run's allocations makes a
leak fail fast.
"""

from repro.core import Orchestrator, Policy
from repro.core.match import FlowMatch
from repro.dataplane import NFPServer
from repro.faults import FaultInjector, FaultPlan
from repro.net import build_packet
from repro.sim import DEFAULT_PARAMS, Environment, PacketPool, SimParams
from repro.traffic import FlowGenerator, TrafficSource
from repro.traffic.generator import DATACENTER_MIX

WEST_EAST = ["ids", "monitor", "loadbalancer"]


def _drained(server, env, rate_mpps, packets, flows=64, slots=256):
    server.pool = PacketPool(capacity=slots)
    TrafficSource(env, server.inject, rate_mpps, packets, seed=7,
                  flows=FlowGenerator(num_flows=flows, sizes=DATACENTER_MIX,
                                      seed=7))
    env.run()
    report = server.conservation_report()
    assert report["unaccounted"] == 0 and report["flight_depth"] == 0
    return server.pool


def test_every_slot_is_back_after_2000_west_east_packets():
    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS)
    server.deploy(Orchestrator().deploy(Policy.from_chain(WEST_EAST)))
    pool = _drained(server, env, 0.25, 2000)
    assert server.emitted == 2000
    # Originals plus the copies parallelism made -- far beyond capacity.
    assert pool.allocations > 2000 and pool.copy_allocations > 0
    assert 0 < pool.peak_in_use <= pool.capacity
    assert pool.in_use == 0 and pool.bytes_in_use == 0
    # The overhead ratio reads cumulative bytes: freeing must not move it.
    assert pool.copy_overhead_fraction() == (
        pool.cumulative_copy_bytes / pool.cumulative_original_bytes) > 0.0


def test_every_slot_is_back_after_a_crash_and_a_hang():
    env = Environment()
    # 32-slot rings under 32-packet bursts: deliveries retry, some give
    # up; a crashed and a hung instance strand packets until the AT and
    # flight sweepers reclaim them.
    params = SimParams(ring_retry_limit=2, ring_capacity=32,
                       at_timeout_us=2_000.0)
    plan = FaultPlan.parse(["crash:monitor#0:pkt=40", "hang:ids#1:pkt=90"])
    server = NFPServer(env, params, injector=FaultInjector(plan),
                       flow_cache_size=256)
    server.deploy(Orchestrator().deploy(Policy.from_chain(WEST_EAST)),
                  scale={name: 2 for name in WEST_EAST})
    # The hung instance sits on its burst until the flight sweeper
    # comes, so the population peaks higher: 512 slots, 1,200 allocations.
    pool = _drained(server, env, 1.5, 600, flows=32, slots=512)
    assert pool.allocations > 2 * pool.capacity
    drops = server.conservation_report()["drops"]
    assert drops.get("ingress_full", 0) > 0 and drops.get("nil", 0) > 0
    assert pool.in_use == 0 and pool.bytes_in_use == 0


def test_a_packet_refused_before_classification_frees_its_slot():
    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS)
    server.deploy(Orchestrator().deploy(
        Policy.from_chain(["firewall"]),
        match=FlowMatch(dport_range=(80, 80))))
    server.inject(build_packet(dst_port=81, size=128))
    assert server.pool.in_use == 1
    env.run()
    assert server.drops == {"no_match": 1}
    assert server.pool.in_use == 0 and server.pool.bytes_in_use == 0
