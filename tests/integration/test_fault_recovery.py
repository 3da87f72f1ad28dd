"""Integration: injected faults, AT timeouts, failover and degradation.

The conservation contract under faults: every injected packet is
eventually *emitted* or accounted to exactly one drop reason -- no
stranded AT entries, no leaked flight state.  These tests drive the
timed DES server (and the functional plane) through each failure mode
of :mod:`repro.faults` and check both the recovery behavior and the
ledger.
"""

from repro.check.fuzz import run_fuzz
from repro.core import Orchestrator, Policy
from repro.dataplane import FunctionalDataplane, NFPServer
from repro.dataplane.flowsplit import key_digest, packet_key, pick_instance
from repro.dataplane.runtimes import _drop_witness
from repro.eval import (
    deployed_from_graph, forced_parallel, forced_sequential, nfp_capacity,
)
from repro.faults import FaultInjector, FaultPlan
from repro.net import build_packet
from repro.sim import DEFAULT_PARAMS, Environment, SimParams
from repro.telemetry import TelemetryHub
from repro.telemetry.hooks import NULL_HUB
from repro.traffic import FlowGenerator, TrafficSource

WEST_EAST = ["ids", "monitor", "loadbalancer"]

#: Short AT timeout so sweeper-driven tests don't simulate 100ms+ of
#: idle virtual time per reclaimed entry.
FAULT_PARAMS = SimParams(at_timeout_us=2_000.0)


def _fault_server(graph_or_policy, faults, params=FAULT_PARAMS, hub=None,
                  scale=None, flow_cache_size=0):
    env = Environment()
    injector = FaultInjector(FaultPlan.parse(faults),
                             telemetry=hub if hub is not None else NULL_HUB)
    server = NFPServer(env, params, telemetry=hub, injector=injector,
                       flow_cache_size=flow_cache_size)
    if isinstance(graph_or_policy, Policy):
        server.deploy(Orchestrator().deploy(graph_or_policy), scale=scale)
    else:
        server.deploy(deployed_from_graph(graph_or_policy), scale=scale)
    return env, server


def _assert_conserved(server):
    report = server.conservation_report()
    assert report["unaccounted"] == 0, report
    assert report["at_depth"] == 0, report
    assert report["flight_depth"] == 0, report
    return report


# ----------------------------------------------------------------- crash
def test_crash_degrades_graph_restarts_instance_and_conserves():
    env, server = _fault_server(Policy.from_chain(WEST_EAST),
                                "crash:monitor:pkt=5")
    TrafficSource(env, server.inject, 0.5, 60,
                  flows=FlowGenerator(num_flows=8, seed=3), poisson=False)
    env.run()

    report = _assert_conserved(server)
    assert server.injector.injected == 1
    # Sole monitor instance died: the parallel graph degraded to its
    # sequential linearization under a fresh MID and the NF restarted
    # under a fresh ~rN label (dead labels are never reused).
    assert server.degraded_mids
    assert "monitor~r1" in server.nfs
    assert "monitor~r1" in {r.nf.name
                            for r in server.runtimes["monitor"].instances}
    # Packets before the crash and after the restart both made it out.
    assert report["emitted"] > 0
    assert sum(report["drops"].values()) > 0


def test_all_nil_entry_is_discarded_not_stranded():
    # Both same-stage NFs dead from their first packet: every version of
    # every in-flight packet aborts to nil, so the merger sees all-nil
    # AT entries and must discard them (completing the entry) rather
    # than waiting for a live version that will never come.
    graph = forced_parallel(["firewall", "firewall"], with_copy=False)
    env, server = _fault_server(graph, "crash:firewall0,crash:firewall1")
    TrafficSource(env, server.inject, 0.5, 30,
                  flows=FlowGenerator(num_flows=4, seed=1), poisson=False)
    env.run()

    report = _assert_conserved(server)
    assert server.mergers[0].discarded >= 1
    assert server.nil_dropped >= 1
    assert report["drops"].get("nil", 0) >= 1


# ----------------------------------------------------- AT entry timeouts
def test_at_timeout_emits_partial_merge_when_usable():
    # Hang the monitor (a version-1 reader): the wedged packet's AT
    # entry still collected version 1 (from ids) and version 2 (the
    # loadbalancer, the only merge source), so the sweeper can merge
    # what arrived and the packet survives (a degraded MERGE_APPLY).
    hub = TelemetryHub()
    env, server = _fault_server(Policy.from_chain(WEST_EAST),
                                "hang:monitor:pkt=5", hub=hub)
    TrafficSource(env, server.inject, 0.5, 40,
                  flows=FlowGenerator(num_flows=8, seed=3), poisson=False)
    env.run()
    server.collect_telemetry()

    _assert_conserved(server)
    assert hub.registry.counter_value("merger.at_timeout") >= 1
    assert hub.registry.counter_value("merger.at_timeout_emit") >= 1
    assert server.mergers[0].timed_out >= 1
    # The AT-size gauge returns to zero once the run drains.
    assert hub.registry.gauges["merger0.at_depth"].value == 0.0


def test_at_timeout_drops_when_merge_source_missing():
    # Hang the loadbalancer instead: version 2 is the src of every merge
    # op, so its wedged packets cannot be partially merged -- the
    # sweeper must account them as at_timeout drops.
    hub = TelemetryHub()
    env, server = _fault_server(Policy.from_chain(WEST_EAST),
                                "hang:loadbalancer:pkt=5", hub=hub)
    TrafficSource(env, server.inject, 0.5, 40,
                  flows=FlowGenerator(num_flows=8, seed=3), poisson=False)
    env.run()
    server.collect_telemetry()

    report = _assert_conserved(server)
    assert report["drops"].get("at_timeout", 0) >= 1
    assert hub.registry.counter_value("merger.at_timeout") >= 1
    assert hub.registry.gauges["merger0.at_depth"].value == 0.0


def test_drop_witness_is_deterministic_lowest_version():
    p1, p2, p3 = (build_packet(src_port=i, size=64) for i in (1, 2, 3))
    # Version 1 wins whenever it was collected...
    assert _drop_witness({3: p3, 1: p1, 2: p2}) is p1
    # ...otherwise the lowest collected version number -- never dict
    # insertion order, which varies with NF completion timing.
    assert _drop_witness({3: p3, 2: p2}) is p2
    assert _drop_witness({2: p2, 3: p3}) is p2
    assert _drop_witness({}) is None


def test_flight_sweeper_reclaims_packets_a_hung_sequential_chain_holds():
    # A sequential graph has no merger, so no AT entry ages the packets
    # the hung monitor wedges: only the flight sweeper (twice the AT
    # timeout) reclaims them, each as one flight_timeout drop.
    env = Environment()
    injector = FaultInjector(FaultPlan.parse("hang:monitor1:pkt=5"))
    server = NFPServer(env, DEFAULT_PARAMS, injector=injector)
    server.deploy(deployed_from_graph(
        forced_sequential(["firewall", "monitor"])))
    TrafficSource(env, server.inject, 2.0, 400,
                  flows=FlowGenerator(num_flows=8, seed=3), poisson=False)
    env.run()

    report = _assert_conserved(server)
    assert report["drops"] == {"nil": 1, "flight_timeout": 30}
    assert report["emitted"] == 369
    assert server.pool.in_use == 0
    assert env.events_processed == 2831


# ------------------------------------------------------ failover (§7 RSS)
def test_hang_with_replicas_fails_over_and_keeps_flow_order():
    # monitor#0 hangs mid-run; monitor#1 absorbs its flows.  Flows that
    # were never assigned to the casualty must be delivered completely
    # and in per-flow order (RSS affinity preserved through failover).
    hub = TelemetryHub()
    scale = {name: 2 for name in WEST_EAST}
    env, server = _fault_server(Policy.from_chain(WEST_EAST),
                                "hang:monitor#0:pkt=10", hub=hub,
                                scale=scale, flow_cache_size=256)
    server.keep_packets = True
    TrafficSource(env, server.inject, 0.5, 120,
                  flows=FlowGenerator(num_flows=16, seed=7), poisson=False)
    env.run()

    _assert_conserved(server)
    # One of two instances down: failover, not degradation.
    assert not server.degraded_mids
    assert server.health.view() == {"monitor": [1]}
    # Cached decisions pinned to the casualty were invalidated/counted.
    assert server.reassigned_flows >= 1
    assert hub.registry.counter_value("failover.reassigned_flows") >= 1

    # The loadbalancer rewrites sip/dip at merge time, so flow identity
    # must come from the injected stream (pids are assigned in injection
    # order, starting at 1), not from the emitted bytes.
    replay = FlowGenerator(num_flows=16, seed=7)
    key_of = {pid: packet_key(replay.next_packet())
              for pid in range(1, 121)}
    by_flow = {}
    for pkt in server.emitted_packets:
        key = key_of[pkt.meta.pid]
        if key is not None:
            by_flow.setdefault(key, []).append(pkt.meta.pid)
    unaffected = {key: pids for key, pids in by_flow.items()
                  if pick_instance(key_digest(key), 2) == 1}
    assert unaffected, "expected some flows pinned to the healthy instance"
    injected_per_flow = {}
    for pid, key in key_of.items():
        injected_per_flow.setdefault(key, []).append(pid)
    for key, pids in unaffected.items():
        # Complete and in per-flow order: failover elsewhere never
        # touched flows pinned to the healthy instance.
        assert pids == injected_per_flow[key]


def test_ring_pressure_overflow_is_accounted():
    # Collapse the monitor's rx ring to one slot under heavy load: the
    # overflow drops must surface through telemetry and the nil path
    # must complete each victim's AT entry (conservation holds).
    hub = TelemetryHub()
    policy = Policy.from_chain(WEST_EAST)
    graph = Orchestrator().compile(policy).graph
    rate = nfp_capacity(graph, FAULT_PARAMS).mpps * 1.5
    env, server = _fault_server(policy, "ring:monitor:cap=1", hub=hub)
    TrafficSource(env, server.inject, rate, 300,
                  flows=FlowGenerator(num_flows=8, seed=2))
    env.run()

    report = _assert_conserved(server)
    assert hub.registry.counter_value("ring.overflow_drop") >= 1
    assert server.lost >= 1
    # Overflow victims were nil'ed through the merger, not stranded.
    assert report["drops"].get("nil", 0) >= 1


def test_slow_instance_keeps_conservation_without_drops():
    env, server = _fault_server(Policy.from_chain(WEST_EAST),
                                "slow:ids:pkt=3:x=6")
    TrafficSource(env, server.inject, 0.3, 40,
                  flows=FlowGenerator(num_flows=8, seed=3), poisson=False)
    env.run()

    report = _assert_conserved(server)
    # Slow is not down: everything is eventually served and emitted.
    assert report["emitted"] == 40
    assert not report["drops"]


# ------------------------------------------------- fault-mode fuzz oracle
def test_fault_mode_fuzz_smoke_holds_conservation():
    report = run_fuzz(cases=8, seed=0, faults=("crash", "hang"),
                      instances=2, packets_per_case=12)
    assert report.cases == 8
    assert report.ok, [f.outcome.detail for f in report.failures]


# ------------------------------------------------------- functional plane
def test_functional_plane_crash_restarts_and_accounts():
    graph = Orchestrator().compile(Policy.from_chain(WEST_EAST)).graph
    injector = FaultInjector(FaultPlan.parse("crash:monitor:pkt=3"))
    plane = FunctionalDataplane(graph, injector=injector)

    flows = FlowGenerator(num_flows=4, seed=1)
    outputs = [plane.process(flows.next_packet()) for _ in range(10)]

    # Packet 3 lost its monitor version (nil -> merge yields None); the
    # sole instance restarted fresh and everything after flowed again.
    assert plane.drop_reasons == {"instance_down": 1}
    assert plane.restarts == 1
    assert plane.dropped == 1
    assert plane.emitted == 9
    assert outputs[2] is None
    assert all(out is not None for out in outputs[3:])
