"""Model-clock golden: the DES's numbers, pinned bit for bit.

Every paper-facing number this repo publishes is a model-clock reading
of one of the timed servers.  A change to the event path, to tie-breaking
among same-time events or to the delivery/retry machinery must leave all
of them exactly where they were, so each scenario below compares with
``==`` -- no tolerance -- against literals recorded at the commit before
the DES moved from one-shot generator processes to scheduled calls
(PR 19's parent); they held through that change and through the one that
turned the classifier, runtimes and mergers into state machines (PR 21).
``events_per_pkt`` is the one field such changes are *meant* to move; it
is pinned at the count after the latest, so the next change to the event
path is a diff here, not a surprise.  The flash-crowd scenario also pins
digests of the tracer's span *set*, the registry's counter totals and
every sampler gauge series but ``core.*.window_util`` -- generated at
PR 21's parent, ``==`` after it.

Regenerate (only when a model change is intended, and say so in
CHANGES.md; to show a change moved nothing, run this *at its parent*
with this file copied over the parent's -- docs/TESTING.md)::

    PYTHONPATH=src python -m tests.integration.test_model_clock_golden
"""

import dataclasses
import hashlib
import pprint

import pytest

from repro.autoscale import ScalePolicy
from repro.baselines import BessServer, OpenNetVMServer
from repro.core import Orchestrator, Policy
from repro.dataplane import NFPServer
from repro.eval import measure_autoscale, measure_nfp
from repro.faults import FaultInjector, FaultPlan
from repro.multiserver import TimedMultiServer
from repro.sim import DEFAULT_PARAMS, Environment, SimParams
from repro.telemetry import TelemetryHub, Tracer
from repro.traffic import FlashCrowdShape, FlowGenerator, TrafficSource
from repro.traffic.generator import DATACENTER_MIX

WEST_EAST = ["ids", "monitor", "loadbalancer"]
NORTH_SOUTH = ["vpn", "monitor", "firewall", "loadbalancer"]
SIX_NF = ["gateway", "monitor", "nat", "firewall", "loadbalancer", "vpn"]


def _reading(latency, packets, events, **counts):
    summary = latency.summary()
    return dict(p50=summary.p50, p99=summary.p99, mean=summary.mean,
                events_per_pkt=events / packets, **counts)


def _fig13(chain, **kwargs):
    packets = 800
    result = measure_nfp(chain, sizes=DATACENTER_MIX, packets=packets, seed=7,
                         **kwargs)
    return dict(p50=result.latency_p50_us, p99=result.latency_p99_us,
                mean=result.latency_mean_us,
                events_per_pkt=result.events_processed / packets,
                delivered=result.delivered, lost=result.lost,
                drops=result.nil_dropped)


def _digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _flash_crowd():
    packets = 2000
    base, peak = 0.8, 2.6
    horizon_us = packets / (base * 2.0)
    window_us = max(10.0, horizon_us / 100.0)
    shape = FlashCrowdShape(
        base_mpps=base, peak_mpps=peak,
        start_us=0.15 * horizon_us, ramp_us=0.30 * horizon_us,
        hold_us=0.25 * horizon_us, decay_us=0.10 * horizon_us)
    policy = ScalePolicy(
        "vpn", min_instances=1, max_instances=4,
        up_rule="ring.occupancy > 0.025 for 1 windows",
        down_rule="ring.occupancy < 0.0125 for 6 windows",
        cooldown_us=3.0 * window_us, max_barrier_us=horizon_us)
    hub = TelemetryHub(tracer=Tracer())
    result = measure_autoscale(
        ["nat", "vpn"], policy, shape,
        params=dataclasses.replace(DEFAULT_PARAMS, ring_capacity=4096),
        packets=packets, seed=7, num_flows=256, popularity="zipf",
        window_us=window_us, telemetry=hub)
    m = result.measurement
    # The span *set*: a collapsed burst records its spans in a different
    # order than a stepped one, with the same timestamps.
    spans = sorted(
        (e.ts_us, e.kind.value, e.name, e.mid, e.pid, e.version,
         e.duration_us, tuple(sorted((e.args or {}).items())))
        for e in hub.tracer.events)
    counters = sorted((name, counter.value)
                      for name, counter in hub.registry.counters.items())
    # core.*.window_util is the one series allowed to move (it became
    # exact when a burst started reserving its core in one call).
    gauges = [
        (w.index, w.start_us, w.end_us, sorted(
            (name, value) for name, value in w.gauges.items()
            if not (name.startswith("core.")
                    and name.endswith(".window_util"))))
        for w in result.sampler.series.windows]
    return dict(span_set=_digest(spans), counter_totals=_digest(counters),
                gauge_series=_digest(gauges), p50=m.latency_p50_us, p99=m.latency_p99_us,
                mean=m.latency_mean_us,
                events_per_pkt=m.events_processed / packets,
                delivered=m.delivered, lost=m.lost,
                drops=result.conservation["drops"],
                unaccounted=result.conservation["unaccounted"],
                scale_ups=result.scaler.scale_ups,
                scale_downs=result.scaler.scale_downs,
                core_saving=result.core_savings_fraction)


def _source(env, inject, rate, packets, sizes=DATACENTER_MIX, flows=64):
    TrafficSource(env, inject, rate, packets, seed=7,
                  flows=FlowGenerator(num_flows=flows, sizes=sizes, seed=7))
    env.run()


def _two_servers():
    packets = 600
    env = Environment()
    graph = Orchestrator().compile(Policy.from_chain(SIX_NF)).graph
    multi = TimedMultiServer(env, DEFAULT_PARAMS, graph, cores_per_server=5)
    assert multi.num_servers == 2
    _source(env, multi.inject, 0.5, packets)
    return _reading(multi.tail.latency, packets, env.events_processed,
                    delivered=multi.delivered, lost=multi.lost,
                    drops=multi.nil_dropped)


def _baseline(cls, **kwargs):
    packets = 800
    env = Environment()
    server = cls(env, DEFAULT_PARAMS, WEST_EAST, **kwargs)
    _source(env, server.inject, 0.75, packets)
    return _reading(server.latency, packets, env.events_processed,
                    delivered=server.rate.delivered, lost=server.lost,
                    drops=server.nil_dropped)


def _faults():
    packets = 600
    env = Environment()
    hub = TelemetryHub()  # counters only: no tracer, same model clock
    # 32-slot rings under 32-packet bursts: deliveries retry, some give up.
    params = SimParams(ring_retry_limit=2, ring_capacity=32,
                       at_timeout_us=2_000.0)
    plan = FaultPlan.parse(["crash:monitor#0:pkt=40", "hang:ids#1:pkt=90"])
    server = NFPServer(env, params, injector=FaultInjector(plan),
                       flow_cache_size=256, telemetry=hub)
    server.deploy(Orchestrator().deploy(Policy.from_chain(WEST_EAST)),
                  scale={name: 2 for name in WEST_EAST})
    _source(env, server.inject, 1.5, packets, flows=32)
    report = server.conservation_report()
    return _reading(server.latency, packets, env.events_processed,
                    delivered=server.rate.delivered, lost=server.lost,
                    drops=report["drops"], unaccounted=report["unaccounted"],
                    reassigned_flows=server.reassigned_flows,
                    retries=hub.registry.counter_value("ring.retry"),
                    aborted=hub.registry.counter_value(
                        "faults.aborted_packets"))


SCENARIOS = {
    "fig13_west_east": lambda: _fig13(WEST_EAST),
    "fig13_north_south": lambda: _fig13(NORTH_SOUTH),
    "fig13_west_east_x2_cached": lambda: _fig13(
        WEST_EAST, instances=2, flow_cache=True),
    "fig13_north_south_x2_cached": lambda: _fig13(
        NORTH_SOUTH, instances=2, flow_cache=True),
    "flash_crowd_nat_vpn": _flash_crowd,
    "two_server_six_nf": _two_servers,
    "opennetvm_west_east": lambda: _baseline(OpenNetVMServer),
    "bess_west_east": lambda: _baseline(BessServer, num_cores=2),
    "crash_hang_retry2": _faults,
}

GOLDEN = {'bess_west_east': {'delivered': 800,
                    'drops': 0,
                    'events_per_pkt': 3.09625,
                    'lost': 0,
                    'mean': 29.961318807485995,
                    'p50': 26.959600000000194,
                    'p99': 67.05267354783935},
 'crash_hang_retry2': {'aborted': 105,
                       'delivered': 463,
                       'drops': {'ingress_full': 32, 'nil': 105},
                       'events_per_pkt': 14.063333333333333,
                       'lost': 96,
                       'mean': 382.1987533886241,
                       'p50': 92.47225202978854,
                       'p99': 2496.1380640297857,
                       'reassigned_flows': 32,
                       'retries': 411,
                       'unaccounted': 0},
 'fig13_north_south': {'delivered': 800,
                       'drops': 0,
                       'events_per_pkt': 9.22,
                       'lost': 0,
                       'mean': 122.832002932992,
                       'p50': 117.55252466196146,
                       'p99': 182.85461554280627},
 'fig13_north_south_x2_cached': {'delivered': 800,
                                 'drops': 0,
                                 'events_per_pkt': 9.91125,
                                 'lost': 0,
                                 'mean': 99.47829753280085,
                                 'p50': 94.77395686384304,
                                 'p99': 149.2837338337387},
 'fig13_west_east': {'delivered': 800,
                     'drops': 0,
                     'events_per_pkt': 11.9,
                     'lost': 0,
                     'mean': 106.44840783179872,
                     'p50': 101.65192553854362,
                     'p99': 171.02702014230073},
 'fig13_west_east_x2_cached': {'delivered': 800,
                               'drops': 0,
                               'events_per_pkt': 13.69625,
                               'lost': 0,
                               'mean': 77.38876553527193,
                               'p50': 73.448414523969,
                               'p99': 130.66965583082802},
 'flash_crowd_nat_vpn': {'core_saving': 0.21726190476190477,
                         'counter_totals': 'd64ac45170b0600c',
                         'delivered': 2000,
                         'drops': {},
                         'events_per_pkt': 5.4645,
                         'gauge_series': '43573480ee6636ea',
                         'lost': 0,
                         'mean': 201.16273144688688,
                         'p50': 187.25949757556953,
                         'p99': 355.91254812714254,
                         'scale_downs': 2,
                         'scale_ups': 4,
                         'span_set': '2c754d1d060548fe',
                         'unaccounted': 0},
 'opennetvm_west_east': {'delivered': 800,
                         'drops': 0,
                         'events_per_pkt': 9.47125,
                         'lost': 0,
                         'mean': 127.69422422580068,
                         'p50': 123.80732360042971,
                         'p99': 190.3842022700622},
 'two_server_six_nf': {'delivered': 600,
                       'drops': 0,
                       'events_per_pkt': 25.821666666666665,
                       'lost': 0,
                       'mean': 125.71080044583721,
                       'p50': 123.20153500101642,
                       'p99': 170.18434481315313}}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_model_clock_is_bit_identical(name):
    assert SCENARIOS[name]() == GOLDEN[name]


if __name__ == "__main__":
    pprint.pprint({name: run() for name, run in SCENARIOS.items()}, width=78)
