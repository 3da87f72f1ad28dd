"""The benchmark scenario registry: named, seeded, budgeted workloads.

Every scenario wraps an existing ``repro.eval`` entry point with fixed
seeds and a packet budget, collects telemetry spans while it runs, and
reports the measurement plus a per-stage time attribution
(:mod:`repro.telemetry.rollup`).  The registry is the single source of
truth for what ``python -m repro bench`` runs:

* ``seq_chain_N`` / ``par_chain_N`` -- firewall chains of length 2-6,
  sequential vs NFP-parallel (Fig. 9/11 forced setups, 300 busy cycles);
* ``fig11_degree_*`` -- the parallelism-degree sweep points;
* ``fig13_north_south`` / ``fig13_west_east`` -- the real-world
  data-center chains, compiled from policies, data-center size mix;
* ``ablation_op1_full_copy`` / ``ablation_op2_header_copy`` -- the §4.2
  copy-operation ablations (full vs header-only copies, degree 2);
* ``scale_ids_x{1..4}`` -- the §7 scale-out sweep: one heavy IDS,
  1-4 RSS-split instances, throughput scaling with the instance count;
* ``fig13_ns_x2_cache_off`` / ``fig13_ns_x2_cache_on`` -- the
  north-south chain at 2 instances/NF without and with the classifier
  flow cache (same seed, so the classify-stage attribution delta is the
  cache's doing);
* ``fig13_ns_faults`` / ``fig13_we_faults`` -- fault-injected runs with
  the windowed telemetry sampler and watch rules armed: a crash/failover
  episode on the north-south chain, and the AT-timeout episode (hung
  monitor stranding AT entries) on the copy-bearing west-east chain;
* ``flash_crowd_autoscale`` -- a flash crowd over a Zipf flow mix on an
  elastic nat->vpn chain: the PR-10 autoscaler rescales the VPN
  bottleneck live and the extras carry core-seconds vs static peak;
* ``fuzz_corpus_replay`` -- the committed differential-fuzz corpus
  replayed through all three planes, as a throughput workload.

Scenarios tagged ``quick`` form the CI smoke set; ``--full`` runs
everything at a larger packet budget.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

from ..core.orchestrator import Orchestrator
from ..core.policy import Policy
from ..eval.experiments import NORTH_SOUTH_CHAIN, WEST_EAST_CHAIN
from ..eval.forced import forced_parallel, forced_sequential
from ..eval.harness import measure_nfp
from ..sim.stats import summarize
from ..telemetry import (
    Sampler,
    SpanKind,
    StageRollup,
    TelemetryHub,
    Tracer,
    Watcher,
    stage_rollup,
)
from ..traffic.generator import DATACENTER_MIX, PacketSizeDistribution
from .schema import measurement_to_dict

__all__ = [
    "BenchmarkSpec",
    "SpecOutcome",
    "REGISTRY",
    "specs_for",
    "corpus_dir",
]

#: Busy-loop cycles for the synthetic firewall chains (Fig. 9/11 point).
CHAIN_BUSY_CYCLES = 300

#: The copy ablations run 512 B frames so OP#1 (full copy) and OP#2
#: (64 B header copy) actually differ -- at 64 B they are the same copy.
FIXED_512B = PacketSizeDistribution([(512, 1.0)], name="512B")


@dataclass
class SpecOutcome:
    """What one scenario runner hands back to the bench runner."""

    measurement: Dict
    rollup: StageRollup
    extra_metrics: Dict = field(default_factory=dict)
    volatile: List[str] = field(default_factory=list)
    params: Dict = field(default_factory=dict)


@dataclass(frozen=True)
class BenchmarkSpec:
    """A named scenario: description, quick-set membership, runner."""

    name: str
    description: str
    quick: bool
    runner: Callable[[int, int], SpecOutcome]


def _counter_extras(hub: TelemetryHub) -> Dict:
    registry = hub.registry
    extras = {
        "copies_full": registry.counter_value("copy.full"),
        "copies_header": registry.counter_value("copy.header"),
        "ring_hops": registry.counter_value("ring.hops"),
        "merged": registry.counter_value("merger.merged"),
    }
    hits = registry.counter_value("classifier.cache_hit")
    misses = registry.counter_value("classifier.cache_miss")
    if hits or misses:
        extras["cache_hits"] = hits
        extras["cache_misses"] = misses
    return extras


def _measured(
    target_factory: Callable,
    extra_cycles: int = 0,
    sizes=None,
    label: str = "",
    instances=None,
    flow_cache: bool = False,
    faults: Optional[str] = None,
    watch: Optional[List[str]] = None,
    window_us: float = 1000.0,
) -> Callable[[int, int], SpecOutcome]:
    """Build a runner around :func:`measure_nfp` with span collection.

    ``faults`` runs the scenario under fault injection; every
    delivery-dependent metric becomes volatile (fault timing vs load
    makes them workload-specific), and the fault/failover counters ride
    along as extras instead.

    ``watch`` arms a windowed :class:`~repro.telemetry.timeseries.Sampler`
    (one window per ``window_us`` of simulated time) with the given
    watch rules; peak-window stats and alert fire/clear counts then ride
    along as volatile extras (schema v2).  The sampler observes the same
    hub the scenario already fills, so an unarmed run costs nothing.
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
        if flow_cache:
            kwargs["flow_cache"] = True
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
        if flow_cache:
            params["flow_cache"] = True
        extras = _counter_extras(hub)
        volatile: List[str] = []
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
            volatile += ["latency_mean_us", "latency_p50_us", "latency_p99_us",
                         "delivered", "lost", "nil_dropped"]
        if sampler is not None:
            params["window_us"] = window_us
            params["watch"] = list(watch)
            series = sampler.series
            telemetry_extras = {
                "windows": len(series.windows),
                "alerts_fired": watcher.fired,
                "alerts_cleared": watcher.cleared,
            }
            for key, metric in (("peak_window_tx", "tx.packets"),
                                ("peak_ring_occupancy", "ring.occupancy"),
                                ("peak_at_depth", "at.depth")):
                peak = series.peak(metric)
                if peak is not None:
                    telemetry_extras[key] = round(float(peak[0]), 6)
            extras.update(telemetry_extras)
            # Window timing under faults follows the fault timing, so
            # everything the sampler saw is reported, never gated.
            volatile = volatile + sorted(telemetry_extras)
        return SpecOutcome(
            measurement=measurement_to_dict(result),
            rollup=stage_rollup(tracer.events),
            extra_metrics=extras,
            volatile=volatile,
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


def _replay_corpus(packets: int, seed: int) -> SpecOutcome:
    """Replay the committed fuzz corpus through all three planes.

    Latency percentiles come from the DES plane's span timestamps
    (simulated time, deterministic); the packets/s figure is wall-clock
    and therefore marked volatile.  Each case gets a fresh tracer so
    packet keys never collide across cases.
    """
    from ..check import FuzzCase, run_case

    rollup = StageRollup()
    latencies: List[float] = []
    cases = failures = replayed_packets = 0
    copies_full = copies_header = 0
    started = perf_counter()
    for path in sorted(glob.glob(os.path.join(corpus_dir(), "*.json"))):
        tracer = Tracer()
        hub = TelemetryHub(tracer=tracer)
        outcome = run_case(FuzzCase.load(path), include_des=True, telemetry=hub)
        cases += 1
        replayed_packets += outcome.packets
        if not outcome.ok:
            failures += 1
        copies_full += hub.registry.counter_value("copy.full")
        copies_header += hub.registry.counter_value("copy.header")
        rollup.merge(stage_rollup(tracer.events))
        for trace in tracer.traces().values():
            classify = next(
                (e for e in trace.events if e.kind is SpanKind.CLASSIFY), None)
            terminal = trace.terminal
            if classify is None or terminal is None:
                continue
            if terminal.kind is not SpanKind.OUTPUT:
                continue
            ingress = (classify.args or {}).get("ingress_us", classify.ts_us)
            latencies.append(terminal.ts_us - float(ingress))
    wall_s = max(perf_counter() - started, 1e-9)
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
        "throughput_mpps": replayed_packets / wall_s / 1e6,
        "bottleneck": "harness",
        "offered_mpps": replayed_packets / wall_s / 1e6,
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
        volatile=["throughput_mpps", "offered_mpps"],
        params={"cases": cases, "corpus": "tests/corpus"},
    )


def _flash_crowd_autoscale(packets: int, seed: int) -> SpecOutcome:
    """Flash crowd against an elastic nat->vpn chain (PR-10 tentpole).

    The offered rate traces a flash crowd (floor -> linear ramp ->
    plateau -> exponential decay) over a heavy-tailed (Zipf) flow mix;
    a :class:`~repro.autoscale.Autoscaler` watches windowed ring
    occupancy and rescales the VPN -- the chain's bottleneck at ~1.5
    Mpps/instance -- live, membership changes executing the classifier
    hold + drain barrier + stateful-handover protocol.

    The headline extras are the autoscaling claim itself: ``core_us``
    (exact elastic core-time integral) versus ``static_peak_core_us``
    (the same wall clock pinned at the peak core count), and
    ``unaccounted`` from the conservation ledger, which must stay 0
    across every membership change.  The timeline scales with the
    packet budget so quick and full runs both see ramp, plateau and
    decay.  Every drop is attributed (``ingress_full`` while the crowd
    outruns the ramping capacity); ``lost`` gates at the baseline like
    any other scenario, and a deterministic seed makes the whole
    episode -- alerts, rescales, drops -- reproducible.
    """
    from ..autoscale import ScalePolicy
    from ..eval.harness import measure_autoscale
    from ..traffic import FlashCrowdShape

    base_mpps, peak_mpps = 0.8, 3.5
    # Nominal horizon if the whole budget arrived at twice the floor
    # rate (the crowd roughly doubles the average); carves the crowd
    # phases out of that so any budget sees the full episode.
    horizon_us = packets / (base_mpps * 2.0)
    window_us = max(10.0, horizon_us / 100.0)
    shape = FlashCrowdShape(
        base_mpps=base_mpps, peak_mpps=peak_mpps,
        start_us=0.20 * horizon_us, ramp_us=0.10 * horizon_us,
        hold_us=0.35 * horizon_us, decay_us=0.15 * horizon_us,
    )
    policy = ScalePolicy(
        "vpn", min_instances=1, max_instances=4,
        # 0.25 of a 1024-slot ring: low enough that the quick budget's
        # proportionally smaller backlog still trips it, hysteretic via
        # the 2-window streak.
        up_rule="ring.occupancy > 0.25 for 2 windows",
        down_rule="ring.occupancy < 0.05 for 6 windows",
        cooldown_us=3.0 * window_us,
        max_barrier_us=horizon_us,
    )
    tracer = Tracer()
    hub = TelemetryHub(tracer=tracer)
    result = measure_autoscale(
        ["nat", "vpn"], policy, shape,
        packets=packets, seed=seed, telemetry=hub,
        num_flows=256, popularity="zipf",
        window_us=window_us, label="flash-crowd nat->vpn",
    )
    scaler = result.scaler
    extras = _counter_extras(hub)
    registry = hub.registry
    extras.update({
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
    })
    sampler_extras = {
        "windows": len(result.sampler.series.windows),
        "alerts_fired": scaler.watcher.fired,
        "alerts_cleared": scaler.watcher.cleared,
    }
    peak = result.sampler.series.peak("ring.occupancy")
    if peak is not None:
        sampler_extras["peak_ring_occupancy"] = round(float(peak[0]), 6)
    extras.update(sampler_extras)
    return SpecOutcome(
        measurement=measurement_to_dict(result.measurement),
        rollup=stage_rollup(tracer.events),
        extra_metrics=extras,
        volatile=sorted(sampler_extras),
        params={"packets": packets, "seed": seed,
                "policy": "vpn 1..4",
                "up_rule": policy.up_rule, "down_rule": policy.down_rule,
                "window_us": round(window_us, 3),
                "base_mpps": base_mpps, "peak_mpps": peak_mpps,
                "popularity": "zipf", "num_flows": 256},
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


def _firewall_specs() -> List[BenchmarkSpec]:
    specs = []
    for length in (2, 3, 4, 5, 6):
        quick = length in (2, 4, 6)
        specs.append(BenchmarkSpec(
            name=f"seq_chain_{length}",
            description=(f"sequential firewall chain x{length} "
                         f"({CHAIN_BUSY_CYCLES} busy cycles)"),
            quick=quick,
            runner=_measured(
                lambda n=length: forced_sequential(["firewall"] * n),
                extra_cycles=CHAIN_BUSY_CYCLES,
            ),
        ))
        specs.append(BenchmarkSpec(
            name=f"par_chain_{length}",
            description=(f"NFP parallel firewall chain x{length}, no copy "
                         f"({CHAIN_BUSY_CYCLES} busy cycles)"),
            quick=quick,
            runner=_measured(
                lambda n=length: forced_parallel(["firewall"] * n,
                                                 with_copy=False),
                extra_cycles=CHAIN_BUSY_CYCLES,
            ),
        ))
    return specs


def _build_registry() -> Dict[str, BenchmarkSpec]:
    specs: List[BenchmarkSpec] = []
    specs.extend(_firewall_specs())
    specs.append(BenchmarkSpec(
        name="fig11_degree_3_nocopy",
        description="Fig. 11 degree sweep: 3 firewalls, shared buffer",
        quick=False,
        runner=_measured(
            lambda: forced_parallel(["firewall"] * 3, with_copy=False),
            extra_cycles=CHAIN_BUSY_CYCLES,
        ),
    ))
    specs.append(BenchmarkSpec(
        name="fig11_degree_5_nocopy",
        description="Fig. 11 degree sweep: 5 firewalls, shared buffer",
        quick=True,
        runner=_measured(
            lambda: forced_parallel(["firewall"] * 5, with_copy=False),
            extra_cycles=CHAIN_BUSY_CYCLES,
        ),
    ))
    specs.append(BenchmarkSpec(
        name="fig11_degree_5_copy",
        description="Fig. 11 degree sweep: 5 firewalls, per-NF copies",
        quick=False,
        runner=_measured(
            lambda: forced_parallel(["firewall"] * 5, with_copy=True),
            extra_cycles=CHAIN_BUSY_CYCLES,
        ),
    ))
    specs.append(BenchmarkSpec(
        name="fig13_north_south",
        description="Fig. 13 north-south chain (compiled, data-center mix)",
        quick=True,
        runner=_measured(_compiled_chain(NORTH_SOUTH_CHAIN),
                         sizes=DATACENTER_MIX, label="north-south"),
    ))
    specs.append(BenchmarkSpec(
        name="fig13_west_east",
        description="Fig. 13 west-east chain (compiled, data-center mix)",
        quick=True,
        runner=_measured(_compiled_chain(WEST_EAST_CHAIN),
                         sizes=DATACENTER_MIX, label="west-east"),
    ))
    specs.append(BenchmarkSpec(
        name="ablation_op1_full_copy",
        description="OP#1 ablation: degree-2 firewall, full 512B copies",
        quick=True,
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
        quick=True,
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
            quick=count != 3,
            runner=_measured(
                lambda: forced_sequential(["ids"]),
                instances=count if count > 1 else None,
                label=f"ids x{count}",
            ),
        ))
    specs.append(BenchmarkSpec(
        name="fig13_ns_x2_cache_off",
        description="north-south chain, 2 instances/NF, flow cache off",
        quick=True,
        runner=_measured(_compiled_chain(NORTH_SOUTH_CHAIN),
                         sizes=DATACENTER_MIX, instances=2,
                         label="north-south x2 cache-off"),
    ))
    specs.append(BenchmarkSpec(
        name="fig13_ns_x2_cache_on",
        description="north-south chain, 2 instances/NF, classifier flow "
                    "cache on (memoized CT+FT decision per flow)",
        quick=True,
        runner=_measured(_compiled_chain(NORTH_SOUTH_CHAIN),
                         sizes=DATACENTER_MIX, instances=2, flow_cache=True,
                         label="north-south x2 cache-on"),
    ))
    specs.append(BenchmarkSpec(
        name="fig13_ns_faults",
        description="north-south chain, 2 instances/NF, one NF instance "
                    "crashed mid-run: failover recovery cost, windowed "
                    "sampler armed (reported, delivery metrics volatile). "
                    "No AT-timeout episode is possible here: the chain "
                    "compiles to a single-version barrier graph, so a "
                    "wedged NF stalls the stage barrier before any AT "
                    "entry opens",
        quick=True,
        runner=_measured(_compiled_chain(NORTH_SOUTH_CHAIN),
                         sizes=DATACENTER_MIX, instances=2, flow_cache=True,
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
                    "alert (reported, delivery metrics volatile)",
        quick=True,
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
        quick=True,
        runner=_flash_crowd_autoscale,
    ))
    specs.append(BenchmarkSpec(
        name="placement_fig13",
        description="Fig. 13 chains placed on a 4-server line under SLOs: "
                    "DES latency of the heuristic plan; heuristic vs brute "
                    "vs round-robin objectives as extras",
        quick=True,
        runner=_placement_fig13,
    ))
    specs.append(BenchmarkSpec(
        name="fuzz_corpus_replay",
        description="committed fuzz corpus replayed through all three planes",
        quick=True,
        runner=_replay_corpus,
    ))
    return {spec.name: spec for spec in specs}


#: All registered scenarios, by name (insertion order = run order).
REGISTRY: Dict[str, BenchmarkSpec] = _build_registry()


def specs_for(mode: str = "quick",
              names: Optional[List[str]] = None) -> List[BenchmarkSpec]:
    """Select scenarios: ``quick``/``full`` mode or an explicit name list."""
    if names:
        unknown = [name for name in names if name not in REGISTRY]
        if unknown:
            raise KeyError(f"unknown scenario(s): {', '.join(unknown)}")
        return [REGISTRY[name] for name in names]
    if mode == "full":
        return list(REGISTRY.values())
    if mode == "quick":
        return [spec for spec in REGISTRY.values() if spec.quick]
    raise ValueError(f"unknown bench mode {mode!r} (use 'quick' or 'full')")
