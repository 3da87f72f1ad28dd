"""Integration: the live autoscaling control plane (PR-10 tentpole).

Four angles on the same machinery:

* the closed loop -- a flash crowd trips the watch rules, instances are
  added live, the conservation ledger stays balanced, and the elastic
  deployment spends measurably fewer core-seconds than static peak
  provisioning while holding p99;
* byte-verified stateful handover -- the DES server is driven in
  lock-step (one packet fully drained at a time) through scale-up and
  scale-down, and every egress packet is byte-compared against a
  :class:`~repro.dataplane.functional.SequentialBank` oracle whose
  banks execute the *same* membership change through the same public
  state-handover hooks at the same packet boundary;
* per-flow ordering -- across live membership changes under concurrent
  load, every flow's packets leave in injection order (the drain
  barrier means no packet observes half-moved state);
* clean scale-down -- retired runtimes stop polling, their rings hold
  no stranded packets, and the ledger still balances;
* the drain barrier sees the burst the classifier is holding between
  lookup and fan-out, so a rescale requested mid-lookup still moves no
  flow's state under a packet.
"""

import pytest

from repro.autoscale import ScalePolicy
from repro.core.orchestrator import Orchestrator
from repro.dataplane.flowsplit import key_digest, packet_key, pick_instance
from repro.dataplane.functional import SequentialBank
from repro.dataplane.server import NFPServer
from repro.eval.harness import as_graph, deployed_from_graph, measure_autoscale
from repro.net import build_packet
from repro.nfs.base import create_nf
from repro.sim import DEFAULT_PARAMS, Environment
from repro.telemetry import TelemetryHub
from repro.traffic import FlashCrowdShape, FlowGenerator, TrafficSource

#: Generous chain SLO for the flash-crowd run: well above the steady
#: p99 of nat->vpn at these loads, well below what an unscaled VPN
#: would produce once the crowd saturates it.
FLASH_SLO_US = 800.0


def _flash_policy(**overrides):
    kwargs = dict(
        name="vpn", min_instances=1, max_instances=4,
        up_rule="ring.occupancy > 0.25 for 2 windows",
        down_rule="ring.occupancy < 0.05 for 6 windows",
        cooldown_us=60.0,
    )
    kwargs.update(overrides)
    return ScalePolicy(**kwargs)


def test_flash_crowd_scales_up_live_and_beats_static_peak():
    orch = Orchestrator()
    shape = FlashCrowdShape(base_mpps=0.8, peak_mpps=3.5, start_us=400.0,
                            ramp_us=200.0, hold_us=700.0, decay_us=300.0)
    result = measure_autoscale(
        ["nat", "vpn"], _flash_policy(), shape,
        packets=3000, seed=1, num_flows=256, popularity="zipf",
        window_us=20.0, orchestrator=orch,
    )
    scaler = result.scaler

    # The crowd fired the up rule and membership changed live.
    assert scaler.scale_ups >= 1
    assert any(r.fired for r in scaler.watcher.rules)
    final_count = scaler.server.runtimes["vpn"].count
    assert final_count > 1
    # The orchestrator's deployment record tracks the dataplane.
    assert orch.get(scaler.mid).scaled.counts["vpn"] == final_count

    # p99 held under the chain SLO despite the crowd.
    assert result.measurement.latency_p99_us < FLASH_SLO_US

    # Fewer core-seconds than a static deployment pinned at the peak.
    assert result.peak_cores > 2
    assert result.core_us < result.static_peak_core_us
    assert result.core_savings_fraction > 0.05

    # Conservation across every membership change: each injected packet
    # is either emitted or in exactly one attributed drop bucket.
    ledger = result.conservation
    assert ledger["unaccounted"] == 0
    assert ledger["injected"] == (ledger["emitted"]
                                  + sum(ledger["drops"].values()))
    assert not any(e["aborted"] for e in scaler.server.scale_events)


class _LockstepHarness:
    """Drive an NFPServer one fully-drained packet at a time, mirrored
    by a SequentialBank executing the same membership changes."""

    def __init__(self, chain, scaled_nf, initial):
        self.scaled_nf = scaled_nf
        self.env = Environment()
        self.server = NFPServer(self.env, DEFAULT_PARAMS,
                                telemetry=TelemetryHub())
        graph = as_graph(chain)
        self.server.deploy(deployed_from_graph(graph),
                           scale={name: (initial if name == scaled_nf else 1)
                                  for name in graph.nf_names()})
        self.server.enable_flow_directory()
        self.server.keep_packets = True

        def bank_chain(_k):
            return [create_nf(kind, name=kind) for kind in chain]

        self._bank_chain = bank_chain
        self.oracle = SequentialBank(bank_chain, instances=initial)
        self.keys = set()
        self.compared = 0

    def _bank_nf(self, index):
        ref = self.oracle.banks[index]
        (nf,) = [nf for nf in ref.nfs if nf.name == self.scaled_nf]
        return nf

    def step(self, server_pkt, oracle_pkt):
        """Inject one packet, drain, byte-compare against the oracle."""
        key = packet_key(server_pkt)
        if key is not None:
            self.keys.add(key)
        before = len(self.server.emitted_packets)
        server_pkt.ingress_us = self.env.now
        self.server.inject(server_pkt)
        self.env.run()
        got = self.server.emitted_packets[before:]
        want = self.oracle.process(oracle_pkt)
        assert len(got) == 1 and want is not None
        assert bytes(got[0].buf) == bytes(want.buf), (
            f"handover divergence on flow {key}")
        self.compared += 1

    def rescale(self, count):
        """Execute the server's live rescale and mirror it on the bank
        through the same public handover hooks, same sorted key order."""
        old = len(self.oracle.banks)
        finished = []
        record = self.server.request_rescale(self.scaled_nf, count,
                                             on_done=finished.append)
        self.env.run()
        assert finished == [record] and not record["aborted"]

        if count > old:
            shared = [s for s in (self._bank_nf(k).export_shared_state()
                                  for k in range(old)) if s is not None]
            for _ in range(old, count):
                ref = type(self.oracle.banks[0])(self._bank_chain(0))
                self.oracle.banks.append(ref)
                for state in shared:
                    self._bank_nf(len(self.oracle.banks) - 1) \
                        .import_shared_state(state)
        for key in sorted(self.keys):
            digest = key_digest(key)
            src, dst = pick_instance(digest, old), pick_instance(digest, count)
            if src == dst:
                continue
            state = self._bank_nf(src).export_flow_state(key)
            if state is not None:
                self._bank_nf(dst).import_flow_state(key, state)
        if count < old:
            del self.oracle.banks[count:]


@pytest.mark.parametrize("chain,scaled_nf,stateful_flows", [
    (["nat"], "nat", True),    # per-flow binding handover
    (["vpn"], "vpn", False),   # shared sequence-floor handover only
])
def test_lockstep_handover_byte_verified_against_sequential_bank(
        chain, scaled_nf, stateful_flows):
    harness = _LockstepHarness(chain, scaled_nf, initial=2)
    stream_a = FlowGenerator(num_flows=96, seed=11)
    stream_b = FlowGenerator(num_flows=96, seed=11)

    for _ in range(220):
        harness.step(stream_a.next_packet(), stream_b.next_packet())
    harness.rescale(3)                      # scale-up mid-run
    for _ in range(220):
        harness.step(stream_a.next_packet(), stream_b.next_packet())
    harness.rescale(2)                      # scale-down mid-run
    for _ in range(220):
        harness.step(stream_a.next_packet(), stream_b.next_packet())

    assert harness.compared == 660
    events = harness.server.scale_events
    assert [e["to"] for e in events] == [3, 2]
    assert sum(e["moved_flows"] for e in events) > 0
    if stateful_flows:
        # The NAT actually shipped bindings; the VPN's state is shared
        # (sequence floor), so nothing rides the per-flow hook.
        assert sum(e["handover_flows"] for e in events) > 0
    else:
        assert sum(e["handover_flows"] for e in events) == 0
    ledger = harness.server.conservation_report()
    assert ledger["unaccounted"] == 0
    assert ledger["injected"] == ledger["emitted"] == 660


def test_per_flow_order_preserved_across_live_rescales():
    """Under concurrent load with live membership changes, every flow's
    packets egress in injection order -- the drain barrier admits no
    reordering window, for moved and unmoved flows alike."""
    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS, telemetry=TelemetryHub())
    graph = as_graph(["nat", "vpn"])
    server.deploy(deployed_from_graph(graph), scale={"nat": 1, "vpn": 1})
    server.enable_flow_directory()
    server.keep_packets = True

    flows = FlowGenerator(num_flows=64, seed=5)
    shape = FlashCrowdShape(base_mpps=0.8, peak_mpps=3.0, start_us=500.0,
                            ramp_us=300.0, hold_us=1500.0, decay_us=500.0)
    TrafficSource(env, server.inject, 0.8, 4000, flows=flows, seed=5,
                  shape=shape)

    def scale_down(_record):
        env.call_later(1500.0, server.request_rescale, "vpn", 1)

    env.call_later(900.0, lambda: server.request_rescale(
        "vpn", 3, on_done=scale_down))
    env.run()

    assert [e["to"] for e in server.scale_events] == [3, 1]
    last_ident = {}
    for pkt in server.emitted_packets:
        key = pkt.five_tuple()
        ident = pkt.ipv4.identification
        if key in last_ident:
            assert ident > last_ident[key], f"reordered flow {key}"
        last_ident[key] = ident
    assert server.conservation_report()["unaccounted"] == 0


@pytest.mark.parametrize("name,count,match", [
    ("ids", 2, "no runtime group"),
    ("nat", 0, "instance count"),
    # Without a flow directory no record of live flows exists: a NAT
    # rescale would hand no binding over and re-port the moved flows.
    ("nat", 2, "flow directory"),
], ids=["ids-2", "nat-0", "nat-2"])
def test_request_rescale_rejects_bad_arguments_at_the_call(name, count, match):
    """An unknown group, a count below 1 or a server with no flow
    directory raises where the change is requested, and nothing is
    queued for a later ``env.run()`` to surface it from."""
    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS)
    server.deploy(deployed_from_graph(as_graph(["nat"])))
    with pytest.raises(ValueError, match=match):
        server.request_rescale(name, count)
    assert env.peek() == float("inf")
    env.run()
    assert server.scale_events == []


def test_scale_down_retires_runtimes_cleanly():
    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS, telemetry=TelemetryHub())
    graph = as_graph(["vpn"])
    server.deploy(deployed_from_graph(graph), scale={"vpn": 3})
    server.enable_flow_directory()

    flows = FlowGenerator(num_flows=48, seed=9)
    TrafficSource(env, server.inject, 1.0, 1500, flows=flows, seed=9)

    env.call_later(600.0, server.request_rescale, "vpn", 1)
    group = server.runtimes["vpn"]
    doomed = group.instances[1:]
    env.run()

    assert group.count == 1 and len(doomed) == 2
    survivor = group.instances[0]
    # Retired runtimes are off their rings for good: no consumer parked,
    # nothing stranded (that would break conservation) ...
    for runtime in doomed:
        assert runtime.retired and runtime not in group.instances
        assert runtime.rx._consumer is None and len(runtime.rx) == 0
    received = [runtime.rx.enqueued for runtime in doomed]
    served, emitted = survivor.nf.rx_packets, server.emitted
    # ... and the survivor serves whatever comes next, all of it.
    for _ in range(40):
        server.inject(flows.next_packet())
    env.run()
    assert survivor.nf.rx_packets == served + 40
    assert server.emitted == emitted + 40
    assert [runtime.rx.enqueued for runtime in doomed] == received
    ledger = server.conservation_report()
    assert ledger["unaccounted"] == 0
    assert ledger["injected"] == (ledger["emitted"]
                                  + sum(ledger["drops"].values()))
    event = server.scale_events[-1]
    assert event["from"] == 3 and event["to"] == 1 and not event["aborted"]


def test_autoscaler_respects_bounds_and_cooldown():
    """Sustained pressure never pushes past max_instances, and decisions
    are spaced by at least the cooldown."""
    orch = Orchestrator()
    shape = FlashCrowdShape(base_mpps=1.0, peak_mpps=6.0, start_us=100.0,
                            ramp_us=100.0, hold_us=3000.0, decay_us=200.0)
    policy = _flash_policy(max_instances=2, cooldown_us=200.0)
    result = measure_autoscale(
        ["nat", "vpn"], policy, shape,
        packets=4000, seed=3, num_flows=128,
        window_us=20.0, orchestrator=orch,
    )
    scaler = result.scaler
    assert scaler.server.runtimes["vpn"].count <= 2
    stamps = [d.ts_us for d in scaler.decisions]
    for earlier, later in zip(stamps, stamps[1:]):
        assert later - earlier >= policy.cooldown_us
    assert result.conservation["unaccounted"] == 0


#: 32 flows told apart after translation by their destination port.
_RACE_FLOWS = 32


@pytest.mark.parametrize("request_us,mid_lookup", [
    (500.0, False),     # between the bursts, pipeline idle
    (1004.5, True),     # second burst drained, its lookups under way
    (1005.0, True),
    (1006.5, False),    # second burst fanned out: in flight
    (1020.0, False),
])
def test_rescale_barrier_sees_the_burst_the_classifier_holds(
        request_us, mid_lookup):
    """The hold stops the classifier's *next* burst; the one between
    lookup and fan-out is in neither the ingress ring nor ``_flight``.
    A barrier blind to it re-splits NAT under those packets, and a flow
    leaves with two translations (Khalid & Akella's handover guarantee:
    no packet may observe half-moved state)."""
    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS)
    server.deploy(deployed_from_graph(as_graph(["nat"])), scale={"nat": 1})
    server.enable_flow_directory()
    server.keep_packets = True

    def burst():
        for flow in range(_RACE_FLOWS):
            server.inject(build_packet(src_ip=f"10.1.0.{flow + 1}",
                                       src_port=4000 + flow,
                                       dst_port=9000 + flow, size=64))

    env.call_later(0.0, burst)
    env.call_later(1000.0, burst)
    env.call_later(request_us, server.request_rescale, "nat", 2)
    env.run()

    (event,) = server.scale_events
    assert event["to"] == 2 and not event["aborted"]
    if mid_lookup:
        assert event["barrier_us"] > 0.0
    translations = {}
    for pkt in server.emitted_packets:
        translations.setdefault(pkt.tcp.dst_port, set()).add(
            (pkt.ipv4.src_ip, pkt.tcp.src_port))
    assert len(server.emitted_packets) == 2 * _RACE_FLOWS
    assert sorted(translations) == [9000 + f for f in range(_RACE_FLOWS)]
    split = {port: seen for port, seen in translations.items()
             if len(seen) != 1}
    assert not split, f"flows translated twice: {split}"
    assert server.conservation_report()["unaccounted"] == 0
