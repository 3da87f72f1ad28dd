"""The benchmark scenario registry: every model-clock number, by name.

Every scenario wraps an existing ``repro.eval`` entry point (or drives a
timed server directly) with its own packet budget and seed, and reports
model-clock readings only: latency percentiles, deliveries and losses,
telemetry counters, ``events_per_pkt`` (the DES's own work per packet)
and a per-stage time attribution rolled up from tracer spans
(:mod:`repro.telemetry.rollup`).  The DES is deterministic, so every
reading is bit-reproducible: ``benchmarks/results/baseline.json`` pins
them all and the gate compares with ``==``.  The registry is the single
source of truth for what ``python -m repro bench`` runs:

* the paper's experiments, one entry per figure or table, each built by
  its ``repro.eval`` function and pinned as that figure's ``table``:
  ``fig7_sequential_chains`` ... ``fig13_real_world_chains``,
  ``table4_rtc_comparison``, ``latency_breakdown``,
  ``merger_load_balancing``, ``overhead_copy_merge``,
  ``ablation_header_only_copying``, ``ablation_containers_vs_vms``,
  ``load_sweep``, ``overhead_resource`` and ``cross_server_timed``;
* ``seq_chain_N`` / ``par_chain_N`` -- firewall chains of length 2-6,
  sequential vs NFP-parallel (Fig. 9/11 forced setups, 300 busy cycles)
  at 800 packets, with the p50/p99 and stage rollup the figure tables
  do not carry;
* ``fig11_degree_5_copy`` -- the Fig. 11 degree-5 point with per-NF
  copies (the shared-buffer degree points are ``par_chain_3`` /
  ``par_chain_5``);
* ``fig13_north_south`` / ``fig13_west_east`` -- the real-world
  data-center chains, compiled from policies, data-center size mix;
* ``ablation_op1_full_copy`` / ``ablation_op2_header_copy`` -- the §4.2
  copy-operation ablations (full vs header-only copies, degree 2);
* ``scale_ids_x{1..4}`` -- the §7 scale-out sweep: one heavy IDS,
  1-4 RSS-split instances, throughput scaling with the instance count;
* ``fig13_ns_x2`` -- the north-south chain at 2 instances/NF;
* ``fig13_ns_faults`` / ``fig13_we_faults`` -- fault-injected runs with
  the windowed telemetry sampler and watch rules armed: a crash/failover
  episode on the north-south chain, and the AT-timeout episode (hung
  monitor stranding AT entries) on the copy-bearing west-east chain;
* ``flash_crowd_autoscale`` -- a flash crowd over a Zipf flow mix on an
  elastic nat->vpn chain: the autoscaler rescales the VPN bottleneck
  live and the extras carry core-seconds vs static peak;
* ``placement_fig13`` -- the Fig. 13 chains placed on a 4-server line;
* ``fuzz_corpus_replay`` -- the committed differential-fuzz corpus
  replayed through all three planes;
* the event-path goldens, seed 7: ``fig13_*_seed7`` and
  ``fig13_*_x2``, ``flash_crowd_nat_vpn`` (with digests of its
  span set, counter totals and sampler gauge series),
  ``two_server_six_nf``, ``opennetvm_west_east`` / ``bess_west_east``
  and ``crash_hang_retry2`` (crash + hang with ring retries).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.orchestrator import Orchestrator
from ..core.partition import partition_graph
from ..core.policy import Policy
from ..eval.breakdown import latency_breakdown
from ..eval.experiments import (
    NORTH_SOUTH_CHAIN,
    WEST_EAST_CHAIN,
    ExperimentTable,
    fig7_sequential_chains,
    fig8_nf_complexity,
    fig9_cycles_sweep,
    fig11_parallelism_degree,
    fig12_graph_structures,
    fig13_real_world_chains,
    table4_rtc_comparison,
)
from ..eval.forced import forced_parallel, forced_sequential
from ..eval.harness import measure_nfp
from ..eval.load_sweep import load_sweep
from ..eval.overhead import (
    copy_merge_penalty,
    merger_scaling,
    resource_overhead_curve,
)
from ..sim import DEFAULT_PARAMS, VM_PARAMS, Environment, SimParams
from ..sim.stats import summarize
from ..telemetry import (
    Sampler,
    StageRollup,
    TelemetryHub,
    Tracer,
    Watcher,
    critical_path,
    stage_rollup,
)
from ..traffic import FlowGenerator, TrafficSource
from ..traffic.generator import DATACENTER_MIX, PacketSizeDistribution
from .schema import measurement_to_dict

__all__ = [
    "BenchmarkSpec",
    "SpecOutcome",
    "REGISTRY",
    "PAPER_SPECS",
    "specs_for",
    "corpus_dir",
]

#: Busy-loop cycles for the synthetic firewall chains (Fig. 9/11 point).
CHAIN_BUSY_CYCLES = 300

#: Fig. 9's busy-loop points: both ends and five between.
FIG9_CYCLES = (1, 300, 900, 1500, 2100, 2700, 3000)

#: The copy ablations run 512 B frames so OP#1 (full copy) and OP#2
#: (64 B header copy) actually differ -- at 64 B they are the same copy.
FIXED_512B = PacketSizeDistribution([(512, 1.0)], name="512B")

#: The six-NF chain that does not fit one 5-core server.
SIX_NF_CHAIN = ("gateway", "monitor", "nat", "firewall", "loadbalancer", "vpn")


@dataclass
class SpecOutcome:
    """What one scenario runner hands back to the bench runner."""

    measurement: Dict
    rollup: StageRollup = field(default_factory=StageRollup)
    extra_metrics: Dict = field(default_factory=dict)
    params: Dict = field(default_factory=dict)
    table: Dict = field(default_factory=dict)


@dataclass(frozen=True)
class BenchmarkSpec:
    """A named scenario: description, runner, its own budget and seed."""

    name: str
    description: str
    runner: Callable[[int, int], SpecOutcome]
    packets: int = 800
    seed: int = 1


def _counter_extras(hub: TelemetryHub) -> Dict:
    registry = hub.registry
    return {
        "copies_full": registry.counter_value("copy.full"),
        "copies_header": registry.counter_value("copy.header"),
        "ring_hops": registry.counter_value("ring.hops"),
        "merged": registry.counter_value("merger.merged"),
    }


def _drop_metrics(conservation: Dict) -> Dict:
    """The ledger's drop reasons as flat ``drops.<reason>`` metrics."""
    return {f"drops.{reason}": count
            for reason, count in conservation["drops"].items()}


def _measured(
    target_factory: Callable,
    extra_cycles: int = 0,
    sizes=None,
    label: str = "",
    instances=None,
    faults: Optional[str] = None,
    watch: Optional[List[str]] = None,
    window_us: float = 1000.0,
) -> Callable[[int, int], SpecOutcome]:
    """Build a runner around :func:`measure_nfp` with span collection.

    ``faults`` runs the scenario under fault injection; the fault and
    failover counters ride along as extras.  ``watch`` arms a windowed
    :class:`~repro.telemetry.timeseries.Sampler` (one window per
    ``window_us`` of simulated time) with the given watch rules;
    peak-window stats and alert fire/clear counts then ride along too.
    A fault fires at a packet count and a window closes at a model
    instant, so these readings are as deterministic as the latencies.
    """

    def run(packets: int, seed: int) -> SpecOutcome:
        tracer = Tracer()
        hub = TelemetryHub(tracer=tracer)
        kwargs = dict(packets=packets, seed=seed, telemetry=hub,
                      extra_cycles=extra_cycles)
        if sizes is not None:
            kwargs["sizes"] = sizes
        if label:
            kwargs["label"] = label
        if instances is not None:
            kwargs["instances"] = instances
        if faults:
            kwargs["faults"] = faults
        sampler = watcher = None
        if watch is not None:
            sampler = Sampler(hub, window_us=window_us)
            watcher = Watcher(list(watch), hub=hub).attach(sampler)
            kwargs["sampler"] = sampler
        result = measure_nfp(target_factory(), **kwargs)
        params = {"packets": packets, "seed": seed,
                  "extra_cycles": extra_cycles}
        if instances is not None:
            params["instances"] = instances
        extras = _counter_extras(hub)
        extras["events_per_pkt"] = result.events_processed / packets
        if faults:
            params["faults"] = faults
            registry = hub.registry
            extras.update({
                "faults_injected": registry.counter_value("faults.injected"),
                "at_timeouts": registry.counter_value("merger.at_timeout"),
                "restarts": registry.counter_value("failover.restarts"),
                "degraded_graphs":
                    registry.counter_value("failover.degraded_graphs"),
            })
        if sampler is not None:
            params["window_us"] = window_us
            params["watch"] = list(watch)
            series = sampler.series
            extras.update({
                "windows": len(series.windows),
                "alerts_fired": watcher.fired,
                "alerts_cleared": watcher.cleared,
            })
            for key, metric in (("peak_window_tx", "tx.packets"),
                                ("peak_ring_occupancy", "ring.occupancy"),
                                ("peak_at_depth", "at.depth")):
                peak = series.peak(metric)
                if peak is not None:
                    extras[key] = round(float(peak[0]), 6)
        return SpecOutcome(
            measurement=measurement_to_dict(result),
            rollup=stage_rollup(tracer.events),
            extra_metrics=extras,
            params=params,
        )

    return run


def _compiled_chain(chain) -> Callable:
    def build():
        policy = Policy.from_chain(list(chain))
        return Orchestrator().compile(policy).graph

    return build


def corpus_dir() -> str:
    """Locate the committed fuzz corpus (repo checkout or cwd)."""
    here = os.path.dirname(os.path.abspath(__file__))
    candidates = [
        os.path.normpath(os.path.join(here, "..", "..", "..", "tests", "corpus")),
        os.path.join(os.getcwd(), "tests", "corpus"),
    ]
    for candidate in candidates:
        if os.path.isdir(candidate):
            return candidate
    raise FileNotFoundError(
        "fuzz corpus not found (looked in "
        + ", ".join(candidates)
        + "); run from a repo checkout or pass a corpus explicitly"
    )


#: The corpus cases the scenario replays, by name: a regression seed
#: committed to ``tests/corpus/`` later joins the tier-1 replay but moves
#: none of the scenario's pinned values.
_REPLAYED_CASES = tuple(
    [f"regression-{name}.json" for name in (
        "caching-icmp", "des-nonip-output", "merge-stage-order-dip",
        "merge-stage-order-payload", "priority-cycle", "priority-free-pair",
        "profile-forwarder-ttl", "profile-nat-icmp")]
    + [f"seed-{index:02d}.json" for index in range(10)])


def _replay_corpus(packets: int, seed: int) -> SpecOutcome:
    """Replay the named cases of the fuzz corpus through all three planes.

    The corpus fixes its own packets and seeds.  Latency percentiles
    come from the DES plane's span timestamps (simulated time): each
    delivered packet's critical-path total, classify to output; each
    case gets a fresh tracer so packet keys never collide across cases.
    """
    from ..check import FuzzCase, run_case

    rollup = StageRollup()
    latencies: List[float] = []
    cases = failures = 0
    copies_full = copies_header = 0
    for name in _REPLAYED_CASES:
        path = os.path.join(corpus_dir(), name)
        tracer = Tracer()
        hub = TelemetryHub(tracer=tracer)
        outcome = run_case(FuzzCase.load(path), include_des=True, telemetry=hub)
        cases += 1
        if not outcome.ok:
            failures += 1
        copies_full += hub.registry.counter_value("copy.full")
        copies_header += hub.registry.counter_value("copy.header")
        rollup.merge(stage_rollup(tracer.events))
        for trace in tracer.traces().values():
            path = critical_path(trace)
            if path is not None and not path.dropped:
                latencies.append(path.total_us)
    if latencies:
        summary = summarize(latencies)
        mean, p50, p99 = summary.mean, summary.p50, summary.p99
    else:
        mean = p50 = p99 = 0.0
    measurement = {
        "system": "NFP-DES",
        "label": f"fuzz corpus replay ({cases} cases)",
        "latency_mean_us": mean,
        "latency_p50_us": p50,
        "latency_p99_us": p99,
        "bottleneck": "harness",
        "delivered": len(latencies),
        "lost": failures,
        "nil_dropped": 0,
        "resource_overhead": 0.0,
        "cores_used": 0,
    }
    return SpecOutcome(
        measurement=measurement,
        rollup=rollup,
        extra_metrics={"copies_full": copies_full,
                       "copies_header": copies_header,
                       "cases": cases, "cases_failed": failures},
        params={"cases": cases, "corpus": "tests/corpus"},
    )


def _flash_crowd(packets: int, seed: int, peak_mpps: float, phases,
                 up_rule: str, down_rule: str, label: str = "",
                 params: SimParams = DEFAULT_PARAMS):
    """Flash crowd against an elastic nat->vpn chain.

    The offered rate traces a flash crowd (floor -> linear ramp ->
    plateau -> exponential decay) over a heavy-tailed (Zipf) flow mix;
    a :class:`~repro.autoscale.Autoscaler` watches windowed ring
    occupancy and rescales the VPN -- the chain's bottleneck at ~1.5
    Mpps/instance -- live, membership changes executing the classifier
    hold + drain barrier + stateful-handover protocol.  The nominal
    horizon is the whole budget arriving at twice the floor rate (the
    crowd roughly doubles the average); ``phases`` carves the crowd's
    start, ramp, hold and decay out of it as fractions, so any budget
    sees the full episode.
    """
    from ..autoscale import ScalePolicy
    from ..eval.harness import measure_autoscale
    from ..traffic import FlashCrowdShape

    base_mpps = 0.8
    horizon_us = packets / (base_mpps * 2.0)
    window_us = max(10.0, horizon_us / 100.0)
    start, ramp, hold, decay = phases
    shape = FlashCrowdShape(
        base_mpps=base_mpps, peak_mpps=peak_mpps,
        start_us=start * horizon_us, ramp_us=ramp * horizon_us,
        hold_us=hold * horizon_us, decay_us=decay * horizon_us,
    )
    policy = ScalePolicy(
        "vpn", min_instances=1, max_instances=4,
        up_rule=up_rule, down_rule=down_rule,
        cooldown_us=3.0 * window_us, max_barrier_us=horizon_us,
    )
    hub = TelemetryHub(tracer=Tracer())
    result = measure_autoscale(
        ["nat", "vpn"], policy, shape,
        params=params, packets=packets, seed=seed, telemetry=hub,
        num_flows=256, popularity="zipf",
        window_us=window_us, label=label,
    )
    run_params = {"packets": packets, "seed": seed, "policy": "vpn 1..4",
                  "up_rule": up_rule, "down_rule": down_rule,
                  "window_us": round(window_us, 3),
                  "base_mpps": base_mpps, "peak_mpps": peak_mpps,
                  "popularity": "zipf", "num_flows": 256}
    return result, hub, run_params


def _flash_crowd_autoscale(packets: int, seed: int) -> SpecOutcome:
    """The headline autoscaling claim: ``core_us`` (exact elastic
    core-time integral) versus ``static_peak_core_us`` (the same wall
    clock pinned at the peak core count), and ``unaccounted`` from the
    conservation ledger, which must stay 0 across every membership
    change.  Every drop is attributed (``ingress_full`` while the crowd
    outruns the ramping capacity)."""
    result, hub, params = _flash_crowd(
        packets, seed, peak_mpps=3.5, phases=(0.20, 0.10, 0.35, 0.15),
        # 0.25 of a 1024-slot ring, hysteretic via the 2-window streak.
        up_rule="ring.occupancy > 0.25 for 2 windows",
        down_rule="ring.occupancy < 0.05 for 6 windows",
        label="flash-crowd nat->vpn")
    scaler = result.scaler
    extras = _counter_extras(hub)
    registry = hub.registry
    extras.update({
        "events_per_pkt": result.measurement.events_processed / packets,
        "scale_ups": scaler.scale_ups,
        "scale_downs": scaler.scale_downs,
        "peak_cores": result.peak_cores,
        "core_us": round(result.core_us, 3),
        "static_peak_core_us": round(result.static_peak_core_us, 3),
        "core_savings_fraction": round(result.core_savings_fraction, 6),
        "unaccounted": result.conservation["unaccounted"],
        "moved_flows": registry.counter_value("autoscale.moved_flows"),
        "handover_flows":
            registry.counter_value("autoscale.handover_flows"),
        "barrier_timeouts":
            registry.counter_value("autoscale.barrier_timeout"),
        "windows": len(result.sampler.series.windows),
        "alerts_fired": scaler.watcher.fired,
        "alerts_cleared": scaler.watcher.cleared,
    })
    peak = result.sampler.series.peak("ring.occupancy")
    if peak is not None:
        extras["peak_ring_occupancy"] = round(float(peak[0]), 6)
    return SpecOutcome(
        measurement=measurement_to_dict(result.measurement),
        rollup=stage_rollup(hub.tracer.events),
        extra_metrics=extras,
        params=params,
    )


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _flash_crowd_nat_vpn(packets: int, seed: int) -> SpecOutcome:
    """A steeper, longer crowd on 4096-slot rings, pinned down to the
    span *set* (a collapsed burst records its spans in a different order
    than a stepped one, with the same timestamps), the counter totals
    and every sampler gauge series but ``core.*.window_util``
    (ARCHITECTURE §6)."""
    result, hub, params = _flash_crowd(
        packets, seed, peak_mpps=2.6, phases=(0.15, 0.30, 0.25, 0.10),
        up_rule="ring.occupancy > 0.025 for 1 windows",
        down_rule="ring.occupancy < 0.0125 for 6 windows",
        params=dataclasses.replace(DEFAULT_PARAMS, ring_capacity=4096))
    params["ring_capacity"] = 4096
    spans = sorted(
        (e.ts_us, e.kind.value, e.name, e.mid, e.pid, e.version,
         e.duration_us, tuple(sorted((e.args or {}).items())))
        for e in hub.tracer.events)
    counters = sorted((name, counter.value)
                      for name, counter in hub.registry.counters.items())
    gauges = [
        (w.index, w.start_us, w.end_us, sorted(
            (name, value) for name, value in w.gauges.items()
            if not (name.startswith("core.")
                    and name.endswith(".window_util"))))
        for w in result.sampler.series.windows]
    extras = {
        "span_set": _digest(spans),
        "counter_totals": _digest(counters),
        "gauge_series": _digest(gauges),
        "events_per_pkt": result.measurement.events_processed / packets,
        "unaccounted": result.conservation["unaccounted"],
        "scale_ups": result.scaler.scale_ups,
        "scale_downs": result.scaler.scale_downs,
        "core_savings_fraction": result.core_savings_fraction,
    }
    extras.update(_drop_metrics(result.conservation))
    return SpecOutcome(
        measurement=measurement_to_dict(result.measurement),
        rollup=stage_rollup(hub.tracer.events),
        extra_metrics=extras,
        params=params,
    )


def _placement_fig13(packets: int, seed: int) -> SpecOutcome:
    """Fig. 13 chains placed onto a 4-server line; solvers compared.

    Servers are sized (5 cores) so the north-south chain cannot fit one
    box: the solvers must cut it across a link, and the DES measurement
    of the heuristic's placement includes the real link serialisation.
    The heuristic/brute/round-robin objectives ride along as extras, so
    the report shows the optimality gap (heuristic == brute here) and
    what the naive dealer would have cost.
    """
    from ..eval.harness import measure_placed
    from ..placement import (
        Slo,
        Topology,
        brute_force_place,
        heuristic_place,
        round_robin_place,
    )

    orch = Orchestrator()
    topology = Topology.from_spec("line:4x5")
    slo = Slo(max_delay_us=150.0, max_mpps=0.8)
    requests = [
        orch.request("north-south", Policy.from_chain(list(NORTH_SOUTH_CHAIN)),
                     slo),
        orch.request("west-east", Policy.from_chain(list(WEST_EAST_CHAIN)),
                     slo),
    ]
    heuristic = heuristic_place(topology, requests)
    brute = brute_force_place(topology, requests)
    naive = round_robin_place(topology, requests)

    placement = heuristic.placement_for("north-south")
    tracer = Tracer()
    hub = TelemetryHub(tracer=tracer)
    result = measure_placed(
        placement, packets=packets, seed=seed, telemetry=hub,
        sizes=DATACENTER_MIX,
        label=f"north-south@{'->'.join(placement.path)}",
    )
    extras = _counter_extras(hub)
    extras.update({
        "events_per_pkt": result.events_processed / packets,
        "heuristic_objective_us": round(heuristic.objective_us, 3),
        "brute_objective_us": round(brute.objective_us, 3),
        "round_robin_objective_us": round(naive.objective_us, 3),
        "heuristic_placed": len(heuristic.placements),
        "brute_placed": len(brute.placements),
        "round_robin_placed": len(naive.placements),
        "predicted_delay_us": round(placement.delay_us, 3),
        "servers_used": placement.num_servers,
    })
    return SpecOutcome(
        measurement=measurement_to_dict(result),
        rollup=stage_rollup(tracer.events),
        extra_metrics=extras,
        params={"packets": packets, "seed": seed, "topology": "line:4x5",
                "slo_delay_us": slo.max_delay_us,
                "slo_mpps": slo.max_mpps},
    )


# -- timed servers driven directly -----------------------------------------
def _drive(env: Environment, inject, rate_mpps: float, packets: int,
           seed: int, flows: int = 64) -> None:
    """Poisson arrivals over the data-center size mix, run to drain."""
    TrafficSource(env, inject, rate_mpps, packets, seed=seed,
                  flows=FlowGenerator(num_flows=flows, sizes=DATACENTER_MIX,
                                      seed=seed))
    env.run()


def _reading(system: str, label: str, latency, env: Environment,
             packets: int, params: Dict, **metrics) -> SpecOutcome:
    summary = latency.summary()
    metrics["events_per_pkt"] = env.events_processed / packets
    return SpecOutcome(
        measurement={"system": system, "label": label,
                     "latency_mean_us": summary.mean,
                     "latency_p50_us": summary.p50,
                     "latency_p99_us": summary.p99},
        extra_metrics=metrics,
        params=params,
    )


def _two_servers(packets: int, seed: int) -> SpecOutcome:
    from ..multiserver import TimedMultiServer

    env = Environment()
    graph = Orchestrator().compile(Policy.from_chain(list(SIX_NF_CHAIN))).graph
    multi = TimedMultiServer(env, DEFAULT_PARAMS, graph,
                             partition_graph(graph, 5))
    _drive(env, multi.inject, 0.5, packets, seed)
    return _reading(
        "NFP-multi", graph.describe(), multi.tail.latency, env, packets,
        {"packets": packets, "seed": seed, "rate_mpps": 0.5,
         "cores_per_server": 5},
        delivered=multi.delivered, lost=multi.lost,
        nil_dropped=multi.nil_dropped, servers=multi.num_servers)


def _baseline(cls, **kwargs) -> Callable[[int, int], SpecOutcome]:
    def run(packets: int, seed: int) -> SpecOutcome:
        env = Environment()
        server = cls(env, DEFAULT_PARAMS, list(WEST_EAST_CHAIN), **kwargs)
        _drive(env, server.inject, 0.75, packets, seed)
        return _reading(
            cls.__name__, " -> ".join(WEST_EAST_CHAIN), server.latency, env,
            packets, dict(kwargs, packets=packets, seed=seed, rate_mpps=0.75),
            delivered=server.rate.delivered, lost=server.lost,
            nil_dropped=server.nil_dropped)

    return run


def _crash_hang_retry2(packets: int, seed: int) -> SpecOutcome:
    from ..dataplane import NFPServer
    from ..faults import FaultInjector, FaultPlan

    env = Environment()
    hub = TelemetryHub()  # counters only: no tracer, same model clock
    # 32-slot rings under 32-packet bursts: deliveries retry, some give up.
    params = SimParams(ring_retry_limit=2, ring_capacity=32,
                       at_timeout_us=2_000.0)
    plan = ["crash:monitor#0:pkt=40", "hang:ids#1:pkt=90"]
    server = NFPServer(env, params, injector=FaultInjector(FaultPlan.parse(plan)),
                       telemetry=hub)
    server.deploy(Orchestrator().deploy(Policy.from_chain(list(WEST_EAST_CHAIN))),
                  scale={name: 2 for name in WEST_EAST_CHAIN})
    _drive(env, server.inject, 1.5, packets, seed, flows=32)
    report = server.conservation_report()
    return _reading(
        "NFP", " -> ".join(WEST_EAST_CHAIN) + " x2, crash + hang",
        server.latency, env, packets,
        {"packets": packets, "seed": seed, "rate_mpps": 1.5, "faults": plan,
         "ring_capacity": 32, "ring_retry_limit": 2},
        delivered=server.rate.delivered, lost=server.lost,
        unaccounted=report["unaccounted"],
        retries=hub.registry.counter_value("ring.retry"),
        aborted=hub.registry.counter_value("faults.aborted_packets"),
        **_drop_metrics(report))


def _experiment(build: Callable[[int, int], ExperimentTable],
                **params) -> Callable[[int, int], SpecOutcome]:
    """Build a runner around a paper experiment: its figure or table is
    the scenario's pinned ``table`` and its title the label."""

    def run(packets: int, seed: int) -> SpecOutcome:
        table = build(packets, seed)
        return SpecOutcome(
            measurement={"system": "experiment", "label": table.experiment},
            table={"headers": list(table.headers),
                   "rows": [list(row) for row in table.rows]},
            params=dict(params, packets=packets, seed=seed),
        )

    return run


def _latency_breakdown(packets: int, seed: int) -> ExperimentTable:
    table = ExperimentTable(
        "Latency breakdown of the Fig. 13 chains (data-center mix)",
        ["chain", "segment", "mean_us", "share_pct"])
    for name, chain in (("north-south", NORTH_SOUTH_CHAIN),
                        ("west-east", WEST_EAST_CHAIN)):
        breakdown = latency_breakdown(_compiled_chain(chain)(), packets=packets,
                                      sizes=DATACENTER_MIX, seed=seed)
        table.rows.extend([name, *row] for row in breakdown.rows())
    return table


#: The load sweep's offered rates, as fractions of the analytic capacity.
LOAD_FRACTIONS = (0.2, 0.5, 0.8, 0.95, 1.3, 2.0)


def _load_sweep(packets: int, seed: int) -> ExperimentTable:
    points = load_sweep(_compiled_chain(WEST_EAST_CHAIN)(), packets=packets,
                        fractions=LOAD_FRACTIONS, seed=seed)
    return ExperimentTable(
        "Offered-load sweep: the west-east graph at 64 B",
        ["offered_mpps", "delivered_mpps", "loss_fraction",
         "latency_mean_us", "latency_p99_us"],
        [[p.offered_mpps, p.delivered_mpps, p.loss_fraction,
          p.latency_mean_us, p.latency_p99_us] for p in points])


def _merger_load_balancing(packets: int, seed: int) -> ExperimentTable:
    table = ExperimentTable(
        "§6.3.3: merger load balancing (forced-parallel firewalls)",
        ["degree", "mergers", "capacity_mpps", "bottleneck", "lossless",
         "imbalance"])
    for degree, mergers in ((2, 1), (5, 2), (4, 2)):
        result = merger_scaling(degree=degree, num_mergers=mergers,
                                packets=packets)
        table.rows.append([degree, mergers, result.capacity_mpps,
                           result.bottleneck, result.lossless,
                           result.imbalance])
    return table


def _overhead_resource(packets: int, seed: int) -> ExperimentTable:
    return ExperimentTable(
        "§6.3.1: resource overhead, theory vs the simulated packet pool",
        ["degree", "theory_ro", "simulated_ro"],
        [list(row) for row in resource_overhead_curve(packets=packets)])


def _overhead_copy_merge(packets: int, seed: int) -> ExperimentTable:
    return ExperimentTable(
        "§6.3.2: copy + merge latency penalty (firewall, degree 2)",
        ["nocopy_us", "copy_us", "penalty_us"],
        [list(copy_merge_penalty(packets=packets))])


def _ablation_header_only_copying(packets: int, seed: int) -> ExperimentTable:
    table = ExperimentTable(
        "OP#2 ablation: header-only vs full copies (west-east NFs, "
        "data-center mix)",
        ["variant", "resource_overhead", "latency_mean_us"])
    for variant, header_only in (("header-only (OP#2)", True),
                                 ("full copies", False)):
        result = measure_nfp(
            forced_parallel(["firewall", "monitor", "loadbalancer"],
                            with_copy=True, header_only=header_only),
            packets=packets, sizes=DATACENTER_MIX)
        table.rows.append([variant, result.resource_overhead,
                           result.latency_mean_us])
    return table


def _ablation_containers_vs_vms(packets: int, seed: int) -> ExperimentTable:
    graph = _compiled_chain(WEST_EAST_CHAIN)()
    table = ExperimentTable("§7: containers vs VMs (west-east graph)",
                            ["substrate", "lat us", "Mpps"])
    for substrate, params in (("containers (prototype)", DEFAULT_PARAMS),
                              ("VMs (§7 variant)", VM_PARAMS)):
        result = measure_nfp(graph, params, packets=packets)
        table.rows.append([substrate, result.latency_mean_us,
                           result.throughput_mpps])
    return table


def _cross_server_timed(packets: int, seed: int) -> ExperimentTable:
    """The six-NF chain on one timed server and cut over two."""
    from ..dataplane import NFPServer
    from ..eval.harness import deployed_from_graph
    from ..multiserver import TimedMultiServer

    graph = _compiled_chain(SIX_NF_CHAIN)()
    env = Environment()
    single = NFPServer(env, DEFAULT_PARAMS)
    single.deploy(deployed_from_graph(graph))
    TrafficSource(env, single.inject, 0.5, packets,
                  flows=FlowGenerator(num_flows=16, seed=seed), seed=seed)
    env.run()
    env = Environment()
    multi = TimedMultiServer(env, DEFAULT_PARAMS, graph,
                             partition_graph(graph, 5))
    TrafficSource(env, multi.inject, 0.5, packets,
                  flows=FlowGenerator(num_flows=16, seed=seed), seed=seed)
    env.run()
    return ExperimentTable(
        "Cross-server latency: the six-NF chain on one box vs two",
        ["setup", "servers", "delivered", "latency_mean_us"],
        [["single box", 1, single.rate.delivered, single.latency.mean],
         ["two boxes", multi.num_servers, multi.delivered,
          multi.tail.latency.mean]])


def _paper_specs() -> List[BenchmarkSpec]:
    """The paper's experiments, one entry per figure or table.

    Each wraps the ``repro.eval`` function that reproduces it at 1,200
    packets unless it says otherwise.  Most of these functions take no
    seed: they run at the harness default, seed 1, which is what their
    entry records (``merger_scaling``'s flow mix keeps the flow
    generator's own default).
    """
    figures = [
        ("fig7_sequential_chains", "Fig. 7: forwarder chains of length 1-5, "
         "NFP vs OpenNetVM (paper: NFP at line rate, OpenNetVM capped)",
         lambda n, s: fig7_sequential_chains(packets=n)),
        ("fig8_nf_complexity", "Fig. 8: two instances of each prototype NF, "
         "sequential vs parallel (paper: the cut grows with NF cost)",
         lambda n, s: fig8_nf_complexity(packets=n)),
        ("fig9_cycles_sweep", "Fig. 9: firewall busy loop of 1-3,000 cycles, "
         "degree 2 (paper: ~45% cut at 3,000 cycles)",
         lambda n, s: fig9_cycles_sweep(packets=n, cycles=FIG9_CYCLES)),
        ("fig11_parallelism_degree", "Fig. 11: 2-5 firewalls at 300 cycles "
         "(paper: no-copy cut 33% -> 52%, copy up to 32%)",
         lambda n, s: fig11_parallelism_degree(packets=n)),
        ("fig12_graph_structures", "Fig. 12: the six 4-NF graph shapes of "
         "Fig. 14 (paper: latency tracks equivalent chain length)",
         lambda n, s: fig12_graph_structures(packets=n)),
        ("fig13_real_world_chains", "Fig. 13: the north-south and west-east "
         "data-center chains (paper: 12.9% at 0%, 35.9% at 8.8%)",
         lambda n, s: fig13_real_world_chains(packets=n)),
        ("table4_rtc_comparison", "Table 4: OpenNetVM vs NFP vs BESS, "
         "firewall chains on n+2 cores",
         lambda n, s: table4_rtc_comparison(packets=n)),
        ("latency_breakdown", "per-segment latency of the Fig. 13 chains",
         _latency_breakdown),
        ("merger_load_balancing", "§6.3.3: one merger at degree 2, two at "
         "degree 4-5 (paper: 10.7 Mpps per merger)", _merger_load_balancing),
        ("overhead_copy_merge", "§6.3.2: copy + merge latency penalty "
         "(paper: ~15 us)", _overhead_copy_merge),
        ("ablation_header_only_copying", "OP#2 ablation: header-only vs full "
         "copies of a copying forced-parallel graph",
         _ablation_header_only_copying),
        ("ablation_containers_vs_vms", "§7: the container prototype vs VMs",
         _ablation_containers_vs_vms),
    ]
    specs = [BenchmarkSpec(name=name, description=description,
                           runner=_experiment(build), packets=1200)
             for name, description, build in figures]
    specs.append(BenchmarkSpec(
        name="load_sweep", packets=1500,
        description="offered-load sweep of the west-east graph: delivered "
                    "tracks offered up to the knee, then plateaus",
        runner=_experiment(_load_sweep, fractions=list(LOAD_FRACTIONS))))
    specs.append(BenchmarkSpec(
        name="overhead_resource", packets=400,
        description="§6.3.1: ro = 64 x (d-1) / s against the simulated pool "
                    "(paper: 8.8% at degree 2)",
        runner=_experiment(_overhead_resource)))
    specs.append(BenchmarkSpec(
        name="cross_server_timed", packets=400, seed=4,
        description="the six-NF chain on one timed server vs cut over two: "
                    "the per-link latency penalty",
        runner=_experiment(_cross_server_timed)))
    return specs


def _firewall_specs() -> List[BenchmarkSpec]:
    specs = []
    for length in (2, 3, 4, 5, 6):
        specs.append(BenchmarkSpec(
            name=f"seq_chain_{length}",
            description=(f"sequential firewall chain x{length} "
                         f"({CHAIN_BUSY_CYCLES} busy cycles)"),
            runner=_measured(
                lambda n=length: forced_sequential(["firewall"] * n),
                extra_cycles=CHAIN_BUSY_CYCLES,
            ),
        ))
        specs.append(BenchmarkSpec(
            name=f"par_chain_{length}",
            description=(f"NFP parallel firewall chain x{length}, no copy "
                         f"({CHAIN_BUSY_CYCLES} busy cycles)"),
            runner=_measured(
                lambda n=length: forced_parallel(["firewall"] * n,
                                                 with_copy=False),
                extra_cycles=CHAIN_BUSY_CYCLES,
            ),
        ))
    return specs


def _golden_specs() -> List[BenchmarkSpec]:
    """The event-path goldens: seed 7, each at its own budget."""
    from ..baselines import BessServer, OpenNetVMServer

    fig13 = [
        ("fig13_west_east_seed7", WEST_EAST_CHAIN, {}),
        ("fig13_north_south_seed7", NORTH_SOUTH_CHAIN, {}),
        ("fig13_west_east_x2", WEST_EAST_CHAIN, {"instances": 2}),
        ("fig13_north_south_x2", NORTH_SOUTH_CHAIN, {"instances": 2}),
    ]
    specs = [
        BenchmarkSpec(
            name=name, seed=7,
            description=f"{' -> '.join(chain)} (data-center mix"
                        + (", 2 instances/NF)" if kwargs else ")"),
            runner=_measured(_compiled_chain(chain), sizes=DATACENTER_MIX,
                             **kwargs))
        for name, chain, kwargs in fig13
    ]
    specs.append(BenchmarkSpec(
        name="flash_crowd_nat_vpn", packets=2000, seed=7,
        description="flash crowd on nat->vpn, 4096-slot rings: span set, "
                    "counter totals and sampler gauge series as digests",
        runner=_flash_crowd_nat_vpn,
    ))
    specs.append(BenchmarkSpec(
        name="two_server_six_nf", packets=600, seed=7,
        description="six-NF chain cut over two 5-core timed servers",
        runner=_two_servers,
    ))
    specs.append(BenchmarkSpec(
        name="opennetvm_west_east", seed=7,
        description="west-east chain on the OpenNetVM server at 0.75 Mpps",
        runner=_baseline(OpenNetVMServer),
    ))
    specs.append(BenchmarkSpec(
        name="bess_west_east", seed=7,
        description="west-east chain on 2 BESS run-to-completion cores at "
                    "0.75 Mpps",
        runner=_baseline(BessServer, num_cores=2),
    ))
    specs.append(BenchmarkSpec(
        name="crash_hang_retry2", packets=600, seed=7,
        description="west-east x2 on 32-slot rings with 2 ring retries: one "
                    "instance crashes, another hangs",
        runner=_crash_hang_retry2,
    ))
    return specs


#: The paper's experiments, in figure order (the head of the registry).
PAPER_SPECS: List[BenchmarkSpec] = _paper_specs()


def _build_registry() -> Dict[str, BenchmarkSpec]:
    specs: List[BenchmarkSpec] = []
    specs.extend(PAPER_SPECS)
    specs.extend(_firewall_specs())
    specs.append(BenchmarkSpec(
        name="fig11_degree_5_copy",
        description="Fig. 11 degree sweep: 5 firewalls, per-NF copies",
        runner=_measured(
            lambda: forced_parallel(["firewall"] * 5, with_copy=True),
            extra_cycles=CHAIN_BUSY_CYCLES,
        ),
    ))
    specs.append(BenchmarkSpec(
        name="fig13_north_south",
        description="Fig. 13 north-south chain (compiled, data-center mix)",
        runner=_measured(_compiled_chain(NORTH_SOUTH_CHAIN),
                         sizes=DATACENTER_MIX, label="north-south"),
    ))
    specs.append(BenchmarkSpec(
        name="fig13_west_east",
        description="Fig. 13 west-east chain (compiled, data-center mix)",
        runner=_measured(_compiled_chain(WEST_EAST_CHAIN),
                         sizes=DATACENTER_MIX, label="west-east"),
    ))
    specs.append(BenchmarkSpec(
        name="ablation_op1_full_copy",
        description="OP#1 ablation: degree-2 firewall, full 512B copies",
        runner=_measured(
            lambda: forced_parallel(["firewall", "firewall"], with_copy=True,
                                    header_only=False),
            extra_cycles=CHAIN_BUSY_CYCLES, sizes=FIXED_512B,
        ),
    ))
    specs.append(BenchmarkSpec(
        name="ablation_op2_header_copy",
        description="OP#2 ablation: degree-2 firewall, header-only copies of "
                    "512B frames",
        runner=_measured(
            lambda: forced_parallel(["firewall", "firewall"], with_copy=True,
                                    header_only=True),
            extra_cycles=CHAIN_BUSY_CYCLES, sizes=FIXED_512B,
        ),
    ))
    for count in (1, 2, 3, 4):
        specs.append(BenchmarkSpec(
            name=f"scale_ids_x{count}",
            description=(f"§7 scale-out sweep: single IDS chain, "
                         f"{count} instance(s), RSS flow-split"),
            runner=_measured(
                lambda: forced_sequential(["ids"]),
                instances=count if count > 1 else None,
                label=f"ids x{count}",
            ),
        ))
    specs.append(BenchmarkSpec(
        name="fig13_ns_x2",
        description="north-south chain, 2 instances/NF",
        runner=_measured(_compiled_chain(NORTH_SOUTH_CHAIN),
                         sizes=DATACENTER_MIX, instances=2,
                         label="north-south x2"),
    ))
    specs.append(BenchmarkSpec(
        name="fig13_ns_faults",
        description="north-south chain, 2 instances/NF, one NF instance "
                    "crashed mid-run: failover recovery cost, windowed "
                    "sampler armed. No AT-timeout episode is possible "
                    "here: the chain compiles to a single-version barrier "
                    "graph, so a wedged NF stalls the stage barrier before "
                    "any AT entry opens",
        runner=_measured(_compiled_chain(NORTH_SOUTH_CHAIN),
                         sizes=DATACENTER_MIX, instances=2,
                         faults="crash:firewall:pkt=200",
                         watch=["ring.occupancy > 0.8 for 3 windows",
                                "merger.at_timeout > 0"],
                         window_us=50.0,
                         label="north-south x2 crash"),
    ))
    specs.append(BenchmarkSpec(
        name="fig13_we_faults",
        description="west-east chain (3-way parallel, copy-bearing), "
                    "monitor hung mid-run: the batch it holds strands AT "
                    "entries at a 2/3 rendezvous until the AT timeout "
                    "emits partial merges -- the windowed sampler sees the "
                    "episode as a firing-then-cleared merger.at_timeout "
                    "alert",
        runner=_measured(_compiled_chain(WEST_EAST_CHAIN),
                         sizes=DATACENTER_MIX,
                         faults="hang:monitor:pkt=200",
                         watch=["merger.at_timeout > 0",
                                "ring.occupancy > 0.8 for 3 windows"],
                         label="west-east monitor hang"),
    ))
    specs.append(BenchmarkSpec(
        name="flash_crowd_autoscale",
        description="flash crowd on an elastic nat->vpn chain: windowed "
                    "watch rules scale the VPN bottleneck live (classifier "
                    "hold, drain barrier, stateful handover); extras carry "
                    "the core-seconds saved vs static peak provisioning "
                    "and the conservation ledger's unaccounted count (0)",
        runner=_flash_crowd_autoscale,
    ))
    specs.append(BenchmarkSpec(
        name="placement_fig13",
        description="Fig. 13 chains placed on a 4-server line under SLOs: "
                    "DES latency of the heuristic plan; heuristic vs brute "
                    "vs round-robin objectives as extras",
        runner=_placement_fig13,
    ))
    specs.append(BenchmarkSpec(
        name="fuzz_corpus_replay",
        description="committed fuzz corpus replayed through all three planes",
        runner=_replay_corpus,
    ))
    specs.extend(_golden_specs())
    return {spec.name: spec for spec in specs}


#: All registered scenarios, by name (insertion order = run order).
REGISTRY: Dict[str, BenchmarkSpec] = _build_registry()


def specs_for(names: Optional[List[str]] = None) -> List[BenchmarkSpec]:
    """The named scenarios, or every registered one."""
    if not names:
        return list(REGISTRY.values())
    unknown = [name for name in names if name not in REGISTRY]
    if unknown:
        raise KeyError(f"unknown scenario(s): {', '.join(unknown)}")
    return [REGISTRY[name] for name in names]
