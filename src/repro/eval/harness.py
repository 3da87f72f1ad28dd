"""Measurement harness: run a workload against a simulated system.

One entry point per system (`measure_nfp`, `measure_onvm`,
`measure_bess`), each returning a :class:`MeasurementResult` with the
quantities the paper's figures plot: mean/percentile latency, maximum
lossless throughput (analytic, DES-validated), loss counts, memory
overhead from copies, and cores used.

Methodology mirrors §6: throughput is the capacity of the bottleneck
component; latency is measured with Poisson arrivals at
``latency_load_fraction`` of that capacity (the paper measures latency
at the highest sustainable rate, where queueing dominates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from ..core.compiler import CompilationResult
from ..core.graph import ServiceGraph
from ..core.orchestrator import DeployedGraph, Orchestrator
from ..core.policy import Policy
from ..core.tables import build_tables
from ..baselines.bess import BessServer
from ..baselines.opennetvm import OpenNetVMServer
from ..dataplane.server import NFPServer
from ..multiserver.dataplane import publish_core_util
from ..nfs.base import create_nf
from ..sim import DEFAULT_PARAMS, Environment, SimParams
from ..telemetry.hooks import NULL_HUB, TelemetryHub
from ..traffic.generator import FIXED_64B, FlowGenerator, PacketSizeDistribution, TrafficSource
from .model import bess_capacity, nfp_capacity, onvm_capacity

__all__ = [
    "MeasurementResult",
    "AutoscaleResult",
    "as_graph",
    "deployed_from_graph",
    "measure_nfp",
    "measure_autoscale",
    "measure_onvm",
    "measure_bess",
    "measure_placed",
]


@dataclass
class MeasurementResult:
    """Everything a figure needs about one measured configuration."""

    system: str
    label: str
    latency_mean_us: float
    latency_p50_us: float
    latency_p99_us: float
    throughput_mpps: float
    bottleneck: str
    offered_mpps: float
    delivered: int
    lost: int
    nil_dropped: int
    resource_overhead: float
    cores_used: int
    #: Simulator queue entries dispatched during the run (0 for
    #: harnesses that do not report it): the DES's own work per packet,
    #: which the bench registry pins per scenario.
    events_processed: int = 0

    @property
    def lossless(self) -> bool:
        return self.lost == 0

    def __str__(self) -> str:
        return (
            f"{self.system:<10s} {self.label:<28s} "
            f"lat={self.latency_mean_us:8.1f}us  "
            f"tput={self.throughput_mpps:6.2f}Mpps  "
            f"overhead={self.resource_overhead*100:5.1f}%  "
            f"cores={self.cores_used}"
        )


def as_graph(target: Union[ServiceGraph, Policy, Sequence[str]]) -> ServiceGraph:
    """Accept a compiled graph, a policy, or a chain of NF kinds."""
    if isinstance(target, ServiceGraph):
        return target
    if isinstance(target, Policy):
        return Orchestrator().compile(target).graph
    return Orchestrator().compile(Policy.from_chain(list(target))).graph


def deployed_from_graph(graph: ServiceGraph, mid: int = 1) -> DeployedGraph:
    """Wrap a (possibly forced) graph as a deployable artifact."""
    return DeployedGraph(mid, CompilationResult(graph, {}, []), build_tables(graph, mid))


def _drain(env: Environment) -> None:
    env.run()


def _result(
    system: str,
    label: str,
    server,
    throughput_mpps: float,
    bottleneck: str,
    offered_mpps: float,
    totals=None,
    resource_overhead: float = 0.0,
    events_processed: int = 0,
) -> MeasurementResult:
    """Assemble what every ``measure_*`` entry point returns.

    ``server`` is where latency and deliveries were recorded (one call
    into :meth:`repro.sim.stats.LatencyStats.summary`, the single
    percentile implementation); ``totals`` -- the same object unless
    given -- carries ``lost`` / ``nil_dropped`` / ``cores_used``, which
    a multi-server plane sums over its servers.
    """
    totals = server if totals is None else totals
    summary = server.latency.summary()
    return MeasurementResult(
        system=system,
        label=label,
        latency_mean_us=summary.mean,
        latency_p50_us=summary.p50,
        latency_p99_us=summary.p99,
        throughput_mpps=throughput_mpps,
        bottleneck=bottleneck,
        offered_mpps=offered_mpps,
        delivered=server.rate.delivered,
        lost=totals.lost,
        nil_dropped=totals.nil_dropped,
        resource_overhead=resource_overhead,
        cores_used=totals.cores_used,
        events_processed=events_processed,
    )


def _scale_map(
    graph: ServiceGraph, instances: Union[int, Mapping[str, int], None]
) -> Optional[Dict[str, int]]:
    """``instances`` (uniform count or name -> count) as a per-NF map."""
    if instances is None:
        return None
    if isinstance(instances, int):
        return {name: instances for name in graph.nf_names()}
    return {name: int(instances.get(name, 1)) for name in graph.nf_names()}


def _nfp_rig(
    deployed: DeployedGraph,
    params: SimParams,
    scale: Optional[Dict[str, int]],
    num_mergers: int,
    extra_cycles: int,
    telemetry: Optional[TelemetryHub],
    injector=None,
) -> Tuple[Environment, NFPServer]:
    """A fresh environment with ``deployed`` installed on one NFP server."""
    env = Environment(track_stats=telemetry is not None and telemetry.enabled)

    def factory(kind: str, name: str):
        nf = create_nf(kind, name=name)
        nf.extra_cycles = extra_cycles
        return nf

    server = NFPServer(env, params, num_mergers=num_mergers, nf_factory=factory,
                       telemetry=telemetry, injector=injector)
    server.deploy(deployed, scale=scale)
    return env, server


def measure_nfp(
    target: Union[ServiceGraph, Policy, Sequence[str]],
    params: SimParams = DEFAULT_PARAMS,
    packets: int = 3000,
    sizes: PacketSizeDistribution = FIXED_64B,
    num_mergers: int = 1,
    load_fraction: Optional[float] = None,
    extra_cycles: int = 0,
    num_flows: int = 64,
    label: str = "",
    seed: int = 1,
    telemetry: Optional[TelemetryHub] = None,
    instances: Union[int, Mapping[str, int], None] = None,
    faults: Union[str, Sequence[str], None] = None,
    sampler=None,
) -> MeasurementResult:
    """Measure an NFP service graph end to end.

    Pass a :class:`repro.telemetry.TelemetryHub` as ``telemetry`` to
    collect per-NF metrics (and span events, if the hub carries a
    tracer) during the run; end-of-run gauges are sampled before
    returning.

    ``instances`` replicates NFs (§7): a uniform count or a name ->
    count mapping; flows are RSS-split, the capacity model divides each
    replicated NF's demand accordingly, and the offered rate follows.

    ``faults`` (a :class:`repro.faults.FaultPlan` spec string or list,
    e.g. ``"crash:firewall:pkt=500"``) injects failures mid-run and
    measures throughput/latency of what survives -- failover, AT
    timeouts and degradation included.  Delivered counts under faults
    depend on fault timing vs the offered load, so treat them as
    workload-specific, not calibration anchors.

    ``sampler`` (a :class:`repro.telemetry.timeseries.Sampler`) arms
    windowed time-series collection: the server registers its live
    probes and the sampler runs as a periodic DES event, so ring/AT
    depth, windowed utilisation, throughput and latency histograms are
    captured per window instead of only at end-of-run.  A final partial
    window is flushed before returning.
    """
    graph = as_graph(target)
    scale = _scale_map(graph, instances)
    size = int(sizes.mean())
    capacity = nfp_capacity(
        graph, params, num_mergers=num_mergers, packet_size=size,
        extra_cycles=extra_cycles, scale=scale,
    )
    fraction = params.latency_load_fraction if load_fraction is None else load_fraction
    rate = max(1e-6, capacity.mpps * fraction)

    injector = None
    if faults:
        from ..faults import FaultInjector, FaultPlan

        injector = FaultInjector(
            FaultPlan.parse(faults),
            telemetry=telemetry if telemetry is not None else NULL_HUB,
        )

    env, server = _nfp_rig(
        deployed_from_graph(graph), params, scale, num_mergers, extra_cycles,
        telemetry, injector=injector)
    if sampler is not None:
        server.arm_sampler(sampler)
    flows = FlowGenerator(num_flows=num_flows, sizes=sizes, seed=seed)
    TrafficSource(env, server.inject, rate, packets, flows=flows, seed=seed)
    _drain(env)
    if sampler is not None:
        sampler.flush(env.now)
    server.collect_telemetry()

    return _result(
        "NFP", label or graph.describe(), server,
        capacity.mpps, capacity.bottleneck, rate,
        resource_overhead=server.pool.copy_overhead_fraction(),
        events_processed=env.events_processed,
    )


@dataclass
class AutoscaleResult:
    """A :func:`measure_autoscale` run: the measurement plus the control
    loop's own ledger (decisions, alerts, core-second integral)."""

    measurement: MeasurementResult
    #: The live controller -- decisions, alerts, watch rules, core_us().
    scaler: object
    #: The windowed sampler the controller watched (flushed).
    sampler: object
    #: Final conservation report; ``unaccounted`` must be 0.
    conservation: Dict
    duration_us: float
    #: Exact core-microseconds spent by the elastic deployment.
    core_us: float
    #: Core-microseconds a static deployment pinned at the peak core
    #: count would have spent over the same wall clock.
    static_peak_core_us: float
    peak_cores: int

    @property
    def core_savings_fraction(self) -> float:
        """How much cheaper elastic was than static peak (0..1)."""
        if self.static_peak_core_us <= 0:
            return 0.0
        return 1.0 - self.core_us / self.static_peak_core_us


def measure_autoscale(
    target: Union[ServiceGraph, Policy, Sequence[str]],
    policy,
    shape,
    params: SimParams = DEFAULT_PARAMS,
    packets: int = 3000,
    sizes: PacketSizeDistribution = FIXED_64B,
    num_mergers: int = 1,
    extra_cycles: int = 0,
    num_flows: int = 256,
    popularity: str = "uniform",
    label: str = "",
    seed: int = 1,
    telemetry: Optional[TelemetryHub] = None,
    instances: Union[int, Mapping[str, int], None] = None,
    window_us: float = 100.0,
    orchestrator: Optional[Orchestrator] = None,
) -> AutoscaleResult:
    """Run a time-varying load against an elastically scaled NFP server.

    ``policy`` is a :class:`repro.autoscale.ScalePolicy` naming the NF
    to scale; ``shape`` is a :class:`repro.traffic.LoadShape` driving
    the offered rate.  The scaled NF starts at ``policy.min_instances``
    (other NFs follow ``instances``), a windowed
    :class:`~repro.telemetry.timeseries.Sampler` streams the server's
    live probes, and a :class:`~repro.autoscale.Autoscaler` reacts to
    the policy's watch rules by changing membership live -- classifier
    hold, drain barrier, stateful handover, RSS re-split.

    The result pairs the usual :class:`MeasurementResult` with the
    numbers the autoscaling claim is judged on: the exact core-time
    integral versus static peak provisioning, and the conservation
    report across every membership change.  With ``orchestrator``
    given, the run deploys through it and every completed rescale is
    mirrored into the deployment record.
    """
    from ..autoscale import Autoscaler
    from ..telemetry.timeseries import Sampler

    graph = as_graph(target)
    scale = (_scale_map(graph, instances)
             or {name: 1 for name in graph.nf_names()})
    if policy.name not in scale:
        raise ValueError(f"policy names {policy.name!r}, not an NF of the graph")
    scale[policy.name] = policy.min_instances

    hub = telemetry if telemetry is not None else TelemetryHub()
    deployed, mid = deployed_from_graph(graph), None
    if orchestrator is not None:
        deployed = orchestrator.deploy(
            Policy.from_chain(list(graph.nf_names())), scale=scale)
        mid = deployed.mid
    env, server = _nfp_rig(
        deployed, params, scale, num_mergers, extra_cycles, hub)

    sampler = Sampler(hub, window_us=window_us)
    server.arm_sampler(sampler)
    scaler = Autoscaler(server, sampler, policy,
                        orchestrator=orchestrator, mid=mid)

    flows = FlowGenerator(num_flows=num_flows, sizes=sizes, seed=seed,
                          popularity=popularity)
    base_rate = max(1e-6, shape.rate_mpps(0.0))
    TrafficSource(env, server.inject, base_rate, packets,
                  flows=flows, seed=seed, shape=shape)
    _drain(env)
    sampler.flush(env.now)
    server.collect_telemetry()
    duration_us = env.now

    # Peak core count actually reached (walking the scale log backwards
    # reconstructs the whole trajectory) -- the static comparator is a
    # deployment pinned there for the entire run.
    active = server.active_cores
    peak = active
    for event in reversed(server.scale_events):
        if event["aborted"]:
            continue
        active -= event["to"] - event["from"]
        peak = max(peak, active)
    core_us = scaler.core_us(duration_us)
    static_peak_core_us = peak * duration_us

    size = int(sizes.mean())
    peak_scale = dict(scale)
    peak_scale[policy.name] = max(
        policy.min_instances,
        max((e["to"] for e in server.scale_events if not e["aborted"]),
            default=policy.min_instances),
    )
    capacity = nfp_capacity(
        graph, params, num_mergers=num_mergers, packet_size=size,
        extra_cycles=extra_cycles, scale=peak_scale,
    )

    measurement = _result(
        "NFP-auto", label or f"{graph.describe()} autoscale[{policy.name}]",
        server, capacity.mpps, capacity.bottleneck,
        shape.peak_mpps(duration_us),
        resource_overhead=server.pool.copy_overhead_fraction(),
        events_processed=env.events_processed,
    )
    return AutoscaleResult(
        measurement=measurement,
        scaler=scaler,
        sampler=sampler,
        conservation=server.conservation_report(),
        duration_us=duration_us,
        core_us=core_us,
        static_peak_core_us=static_peak_core_us,
        peak_cores=peak,
    )


def measure_placed(
    placement,
    params: SimParams = DEFAULT_PARAMS,
    packets: int = 3000,
    sizes: PacketSizeDistribution = FIXED_64B,
    num_mergers: int = 1,
    load_fraction: Optional[float] = None,
    num_flows: int = 64,
    label: str = "",
    seed: int = 1,
    telemetry: Optional[TelemetryHub] = None,
    topology=None,
) -> MeasurementResult:
    """DES-measure one placed chain on its planned servers and links.

    Drives a :class:`repro.multiserver.TimedMultiServer` built from the
    :class:`repro.placement.ChainPlacement` -- the placement's own
    slices, each hop serialising at its link's bandwidth and paying its
    propagation delay -- with Poisson arrivals at the chain's committed
    worst-case rate (``slo.max_mpps``, scaled by ``load_fraction``).
    The resulting p99 is the number the delay SLO is validated against:
    the plan promised ``delay <= slo.max_delay_us`` from the zero-load
    model, the DES shows what queueing at the committed rate adds.
    """
    from ..placement.runtime import build_timed  # local: avoids a cycle

    request = placement.request
    fraction = (
        params.latency_load_fraction if load_fraction is None
        else load_fraction
    )
    rate = max(1e-6, request.slo.max_mpps * fraction)

    env = Environment(track_stats=telemetry is not None and telemetry.enabled)
    plane = build_timed(
        placement, env, params, num_mergers=num_mergers, telemetry=telemetry
    )
    flows = FlowGenerator(num_flows=num_flows, sizes=sizes, seed=seed)
    TrafficSource(env, plane.inject, rate, packets, flows=flows, seed=seed)
    _drain(env)
    for server in plane.servers:
        server.collect_telemetry()
    if telemetry is not None and telemetry.enabled:
        # The multiserver.* gauge namespace, read by the ASCII
        # exporter's server/link table (``place --measure``).
        if topology is not None:
            for name, server_slice in zip(placement.path, placement.slices):
                publish_core_util(telemetry, name, server_slice,
                                  topology.server(name).cores)
        for index, link in enumerate(plane.links):
            if not link.frames:
                continue
            telemetry.inc(f"multiserver.link{index}.frames", link.frames)
            telemetry.inc(f"multiserver.link{index}.bytes", link.bytes)
            link.publish(telemetry, index, link.gbps, rate)

    return _result(
        "NFP-placed", label or f"{request.name}@{'->'.join(placement.path)}",
        plane.tail, placement.capacity_mpps, placement.bottleneck, rate,
        totals=plane, events_processed=env.events_processed,
    )


def measure_onvm(
    chain: Sequence[str],
    params: SimParams = DEFAULT_PARAMS,
    packets: int = 3000,
    sizes: PacketSizeDistribution = FIXED_64B,
    load_fraction: Optional[float] = None,
    extra_cycles: int = 0,
    num_flows: int = 64,
    label: str = "",
    seed: int = 1,
) -> MeasurementResult:
    """Measure a sequential chain under OpenNetVM."""
    size = int(sizes.mean())
    capacity = onvm_capacity(chain, params, packet_size=size, extra_cycles=extra_cycles)
    fraction = params.latency_load_fraction if load_fraction is None else load_fraction
    rate = max(1e-6, capacity.mpps * fraction)

    env = Environment()
    server = OpenNetVMServer(env, params, chain, extra_cycles=extra_cycles)
    flows = FlowGenerator(num_flows=num_flows, sizes=sizes, seed=seed)
    TrafficSource(env, server.inject, rate, packets, flows=flows, seed=seed)
    _drain(env)

    return _result("OpenNetVM", label or "->".join(chain), server,
                   capacity.mpps, capacity.bottleneck, rate)


def measure_bess(
    chain: Sequence[str],
    params: SimParams = DEFAULT_PARAMS,
    num_cores: int = 1,
    packets: int = 3000,
    sizes: PacketSizeDistribution = FIXED_64B,
    load_fraction: Optional[float] = None,
    extra_cycles: int = 0,
    num_flows: int = 64,
    label: str = "",
    seed: int = 1,
) -> MeasurementResult:
    """Measure a run-to-completion chain under BESS."""
    size = int(sizes.mean())
    capacity = bess_capacity(
        chain, params, num_cores=num_cores, packet_size=size,
        extra_cycles=extra_cycles,
    )
    fraction = params.latency_load_fraction if load_fraction is None else load_fraction
    rate = max(1e-6, capacity.mpps * fraction)

    env = Environment()
    server = BessServer(env, params, chain, num_cores=num_cores, extra_cycles=extra_cycles)
    flows = FlowGenerator(num_flows=num_flows, sizes=sizes, seed=seed)
    TrafficSource(env, server.inject, rate, packets, flows=flows, seed=seed)
    _drain(env)

    return _result("BESS", label or "->".join(chain), server,
                   capacity.mpps, capacity.bottleneck, rate)
