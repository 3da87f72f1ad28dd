"""The lab's four workloads: what they are, how to build, run and check them.

Every parameter is restated here (never imported from ``repro.bench``),
so the benchmark keeps measuring the same thing when the repo's own
scenarios move.  Importing this module imports :mod:`repro`; the child
does it inside the set-up stopwatch on purpose.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.autoscale import ScalePolicy
from repro.baselines.opennetvm import OpenNetVMServer
from repro.core.orchestrator import Orchestrator
from repro.core.policy import Policy
from repro.dataplane.functional import (
    FunctionalDataplane,
    SequentialBank,
    SequentialReference,
)
from repro.dataplane.server import NFPServer
from repro.eval.harness import measure_autoscale
from repro.nfs.base import create_nf
from repro.sim import DEFAULT_PARAMS, Environment
from repro.telemetry.hooks import TelemetryHub
from repro.telemetry.tracer import Tracer
from repro.traffic import FlashCrowdShape
from repro.traffic.generator import (
    FlowGenerator,
    PacketSizeDistribution,
    TrafficSource,
)

from .calib import Calibrator

__all__ = ["Workload", "WORKLOADS", "Rig", "RunResult", "build", "run", "oracle"]

#: Benson et al. data-center mix (mean 724 B), restated.
DC_MIX = PacketSizeDistribution(
    [(64, 0.40), (200, 0.05), (576, 0.10), (1024, 0.05), (1450, 0.40)],
    name="lab-dcmix",
)
FIXED_64 = PacketSizeDistribution([(64, 1.0)], name="lab-64B")

NORTH_SOUTH = ("vpn", "monitor", "firewall", "loadbalancer")
WEST_EAST = ("ids", "monitor", "loadbalancer")
ELASTIC = ("nat", "vpn")

#: Slices a timed DES run is cut into so calibration ticks interleave.
DES_SLICES = 16


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    chain: Tuple[str, ...]
    #: "func" (FunctionalDataplane, closed loop, one caller), "des"
    #: (NFPServer, open-loop Poisson) or "autoscale" (measure_autoscale).
    plane: str
    sizes: PacketSizeDistribution
    flows: int
    popularity: str
    scale: Optional[int]
    #: Packets per repeat: about two seconds of host time at the commit
    #: that added the lab, and far below the 65,536-slot never-freed pool.
    packets: int
    #: Packets per timed slice (func planes).
    chunk: int = 0
    #: Absolute offered rate (des) -- never a fraction of the repo's own
    #: analytic capacity, which a model change would move with it.
    rate_mpps: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ns_dcmix_func",
            "Fig.13 north-south with VPN on the DC mix: pure-Python AES is ~97% of host "
            "time, so an AES change shows here and a dataplane change must not",
            NORTH_SOUTH, "func", DC_MIX, 64, "uniform", None, 200, chunk=10,
        ),
        Workload(
            "we_x4_64b_func",
            "Fig.13 west-east x4 at 64 B over 8,192 Zipf flows, no AES, no event core: "
            "per-packet fixed cost (field access, walk, copy, merge) dominates",
            WEST_EAST, "func", FIXED_64, 8192, "zipf", 4, 18000, chunk=750,
        ),
        Workload(
            "we_dcmix_des",
            "the same west-east chain through the event-driven NFPServer at a fixed "
            "0.75 Mpps: scheduler, ring and burst-transfer changes show here",
            WEST_EAST, "des", DC_MIX, 64, "uniform", None, 6000, rate_mpps=0.75,
        ),
        Workload(
            "flash_crowd_des",
            "elastic nat>vpn under a flash crowd with telemetry on: table writes "
            "(rescale, re-install, cache invalidation, handover) beside packet reads",
            ELASTIC, "autoscale", FIXED_64, 256, "zipf", None, 6000,
        ),
    )
}


# ---------------------------------------------------------------- set-up
class Rig:
    """Everything built before the first packet of one repeat."""

    def __init__(self):
        self.graph = None
        self.plane: Optional[FunctionalDataplane] = None
        self.env: Optional[Environment] = None
        self.server: Optional[NFPServer] = None
        self.hub: Optional[TelemetryHub] = None

    def nfs(self) -> Sequence:
        """The NF objects packets went through (after a run)."""
        owner = self.plane if self.plane is not None else self.server
        return list(owner.nfs.values())


def build(workload: Workload, telemetry: bool = False,
          scheduler: str = "heap") -> Rig:
    """Compile, build tables, construct the plane/server, deploy."""
    rig = Rig()
    orch = Orchestrator()
    policy = Policy.from_chain(list(workload.chain), name=workload.name)
    if workload.plane == "func":
        rig.graph = orch.compile(policy).graph
        rig.plane = FunctionalDataplane(rig.graph, scale=workload.scale)
    elif workload.plane == "des":
        deployed = orch.deploy(policy)  # compile + build_tables
        rig.graph = deployed.graph
        if telemetry:
            rig.hub = TelemetryHub(tracer=Tracer())
        rig.env = Environment(track_stats=telemetry, scheduler=scheduler)
        rig.server = NFPServer(rig.env, DEFAULT_PARAMS, telemetry=rig.hub)
        rig.server.deploy(deployed)
    else:
        # measure_autoscale builds its own server; the graph and the hub
        # are all a caller prepares.
        rig.graph = orch.compile(policy).graph
        rig.hub = TelemetryHub(tracer=Tracer())
    return rig


# ------------------------------------------------------------------ load
def _stratify(packets: List, sizes: PacketSizeDistribution, count: int) -> List:
    """First ``count`` packets of ``packets`` that fill exact size quotas.

    With ~200 AES-bound packets per repeat an i.i.d. size draw moves the
    byte total by +-4% from seed to seed; exact quotas keep the work per
    repeat constant so seeds differ in order, flows and payload only.
    """
    quota = {size: int(round(weight * count)) for size, weight in sizes.points}
    largest = max(quota, key=quota.get)
    quota[largest] += count - sum(quota.values())
    picked = []
    for pkt in packets:
        size = len(pkt.buf)
        if quota.get(size, 0) > 0:
            quota[size] -= 1
            picked.append(pkt)
            if len(picked) == count:
                return picked
    raise RuntimeError(f"size quotas not filled from {len(packets)} packets")


def generate(workload: Workload, seed: int, packets: int) -> List:
    """The pre-generated stream of a func workload (same seed, same bytes)."""
    flows = FlowGenerator(num_flows=workload.flows, sizes=workload.sizes,
                          seed=seed, popularity=workload.popularity, zipf_s=1.2)
    if len(workload.sizes.points) == 1:
        return flows.packets(packets)
    return _stratify(flows.packets(packets * 4), workload.sizes, packets)


class _TickingCrowd(FlashCrowdShape):
    """The flash crowd, with a calibration tick every so often.

    ``measure_autoscale`` owns its event loop, so the only place the lab
    can interleave calibration with the work is the shape the traffic
    source consults at every burst.  Time spent ticking is kept apart
    and taken off the stopwatch.
    """

    def arm(self, cal: Calibrator, every_us: float) -> None:
        self._cal = cal
        self._every_us = every_us
        self._next_us = every_us
        self.tick_s = 0.0

    def rate_mpps(self, t_us: float) -> float:
        if t_us >= self._next_us:
            self._next_us += self._every_us
            t0 = time.perf_counter()
            self._cal.tick()
            self.tick_s += time.perf_counter() - t0
        return super().rate_mpps(t_us)


def _flash_crowd(packets: int, cal: Calibrator):
    """Flash-crowd shape, scale policy and parameters for a packet budget.

    Floor 0.8 Mpps, ramp to a 2.6 Mpps plateau, exponential decay, all
    scaled to the budget.  The plateau is lower and the trigger earlier
    than in the repo's own flash-crowd scenario, and rings are four times
    the default depth (thresholds scaled to match), so the classifier
    hold of a rescale never overflows the ingress ring: a refused packet
    counts as failed here, and none is refused on any seed tried (peak
    occupancy stays under a third).
    """
    base, peak = 0.8, 2.6
    horizon_us = packets / (base * 2.0)
    window_us = max(10.0, horizon_us / 100.0)
    shape = _TickingCrowd(
        base_mpps=base, peak_mpps=peak,
        start_us=0.15 * horizon_us, ramp_us=0.30 * horizon_us,
        hold_us=0.25 * horizon_us, decay_us=0.10 * horizon_us,
    )
    shape.arm(cal, horizon_us / DES_SLICES)
    policy = ScalePolicy(
        "vpn", min_instances=1, max_instances=4,
        up_rule="ring.occupancy > 0.025 for 1 windows",
        down_rule="ring.occupancy < 0.0125 for 6 windows",
        cooldown_us=3.0 * window_us, max_barrier_us=horizon_us,
    )
    params = dataclasses.replace(DEFAULT_PARAMS, ring_capacity=4096)
    return shape, policy, params, window_us


# ------------------------------------------------------------------- run
@dataclass
class RunResult:
    offered: int
    work_s: float
    #: func planes: per-packet output bytes (None = dropped).
    outputs: Optional[List[Optional[bytes]]] = None
    #: des planes: model-clock numbers and drain-time counters.
    model: Optional[Dict[str, float]] = None
    counters: Optional[Dict[str, float]] = None
    #: ring-overflow ``lost`` + ledger ``unaccounted`` (timed planes);
    #: swallowed NF errors are added by the caller.
    failed: int = 0


def run(workload: Workload, rig: Rig, seed: int, packets: int,
        cal: Calibrator, stream: Optional[List] = None) -> RunResult:
    """One timed repeat; calibration ticks interleave with the slices."""
    if workload.plane == "func":
        return _run_func(workload, rig, packets, cal, stream)
    if workload.plane == "des":
        return _run_des(workload, rig, seed, packets, cal)
    return _run_autoscale(workload, rig, seed, packets, cal)


def _run_func(workload, rig, packets, cal, stream) -> RunResult:
    plane = rig.plane
    outputs: List = []
    work = 0.0
    step = max(1, workload.chunk)
    for start in range(0, packets, step):
        chunk = stream[start:start + step]
        cal.tick()
        t0 = time.perf_counter()
        outputs.extend(plane.process_many(chunk))
        work += time.perf_counter() - t0
    cal.tick()
    return RunResult(
        offered=packets, work_s=work,
        outputs=[None if out is None else bytes(out.buf) for out in outputs],
    )


def _des_counters(server: NFPServer, env: Environment) -> Dict[str, float]:
    report = server.conservation_report()
    rings = [server.ingress] + [m.rx for m in server.mergers]
    for group in server.runtimes.values():
        rings.extend(rt.rx for rt in group.instances)
    counters = {
        "sim.events": float(env.events_processed),
        "dataplane.ring_drops": float(server.lost),
        "dataplane.ring_peak_occupancy":
            max(r.high_watermark / r.capacity for r in rings),
        "dataplane.at_peak_depth":
            float(max(m.at_high_watermark for m in server.mergers)),
        "dataplane.pool_in_use_at_drain": float(server.pool.in_use),
        "dataplane.flight_at_drain": float(report["flight_depth"]),
        "unaccounted": float(report["unaccounted"]),
    }
    cache = server.flow_cache
    if cache is not None and cache.hits + cache.misses:
        counters["dataplane.flow_cache_hit_ratio"] = (
            cache.hits / (cache.hits + cache.misses))
    return counters


def _latency_model(server) -> Dict[str, float]:
    summary = server.latency.summary()
    return {
        "model_p50_us": summary.p50,
        "model_p99_us": summary.p99,
        "model_mean_us": summary.mean,
        "model_samples": float(summary.count),
    }


def _run_des(workload, rig, seed, packets, cal) -> RunResult:
    env, server = rig.env, rig.server
    flows = FlowGenerator(num_flows=workload.flows, sizes=workload.sizes,
                          seed=seed, popularity=workload.popularity)
    source = TrafficSource(env, server.inject, workload.rate_mpps, packets,
                           flows=flows, seed=seed)
    horizon_us = packets / workload.rate_mpps
    work = 0.0
    for k in range(1, DES_SLICES + 1):
        cal.tick()
        t0 = time.perf_counter()
        env.run(until=horizon_us * k / DES_SLICES)
        work += time.perf_counter() - t0
    cal.tick()
    t0 = time.perf_counter()
    env.run()
    work += time.perf_counter() - t0
    cal.tick()
    server.collect_telemetry()
    counters = _des_counters(server, env)
    model = _latency_model(server)
    model["model_copy_overhead_pct"] = 100.0 * server.pool.copy_overhead_fraction()
    failed = server.lost + int(counters["unaccounted"])
    return RunResult(offered=source.offered, work_s=work, model=model,
                     counters=counters, failed=failed)


def _run_autoscale(workload, rig, seed, packets, cal) -> RunResult:
    shape, policy, params, window_us = _flash_crowd(packets, cal)
    cal.tick()
    t0 = time.perf_counter()
    result = measure_autoscale(
        list(workload.chain), policy, shape, params=params, packets=packets,
        sizes=workload.sizes, seed=seed, telemetry=rig.hub,
        num_flows=workload.flows, popularity=workload.popularity,
        window_us=window_us, label=workload.name,
    )
    work = time.perf_counter() - t0 - shape.tick_s
    cal.tick()
    rig.server = result.scaler.server  # so rig.nfs() sees the NFs that ran
    m = result.measurement
    conservation = result.conservation
    registry = rig.hub.registry
    model = {
        "model_p50_us": m.latency_p50_us,
        "model_p99_us": m.latency_p99_us,
        "model_mean_us": m.latency_mean_us,
        "model_samples": float(m.delivered),
        "model_core_saving_pct": 100.0 * result.core_savings_fraction,
    }
    peak = result.sampler.series.peak("ring.occupancy")
    counters = {
        "sim.events": float(m.events_processed),
        "dataplane.ring_drops": float(m.lost),
        "dataplane.ring_peak_occupancy": float(peak[0]) if peak else 0.0,
        "dataplane.flight_at_drain": float(conservation["flight_depth"]),
        "dataplane.at_peak_depth": float(conservation["at_depth"]),
        "autoscale.scale_ups": float(result.scaler.scale_ups),
        "autoscale.scale_downs": float(result.scaler.scale_downs),
        "autoscale.moved_flows":
            float(registry.counter_value("autoscale.moved_flows")),
        "telemetry.spans": float(len(rig.hub.tracer)),
        "telemetry.windows": float(len(result.sampler.series.windows)),
        "dataplane.flow_cache_hit_ratio": _ratio(
            registry.counter_value("classifier.cache_hit"),
            registry.counter_value("classifier.cache_miss")),
        "unaccounted": float(conservation["unaccounted"]),
    }
    # A refused packet (attributed ingress_full) misses every limit.
    failed = m.lost + int(conservation["unaccounted"])
    return RunResult(offered=packets, work_s=work, model=model,
                     counters=counters, failed=failed)


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


# ---------------------------------------------------------------- oracle
def oracle(workload: Workload, seed: int, packets: int,
           outputs: List[Optional[bytes]]) -> int:
    """Packets whose output differs from the sequential ground truth.

    Byte-for-byte and drop-for-drop against ``SequentialReference`` (or
    ``SequentialBank`` behind the same RSS split when scaled) fed an
    identically generated stream.
    """
    chain = workload.chain

    def fresh(bank: int):
        return [create_nf(kind, name=f"seq{bank}.{kind}") for kind in chain]

    if workload.scale and workload.scale > 1:
        reference = SequentialBank(fresh, workload.scale)
    else:
        reference = SequentialReference(fresh(0))
    mismatches = 0
    stream = generate(workload, seed, packets)
    if len(stream) != len(outputs):
        raise RuntimeError("oracle stream and outputs differ in length")
    for pkt, got in zip(stream, outputs):
        out = reference.process(pkt)
        want = None if out is None else bytes(out.buf)
        if want != got:
            mismatches += 1
    errors = sum(nf.errors for bank in getattr(reference, "banks", [reference])
                 for nf in bank.nfs)
    return mismatches + errors


def sequential_des(workload: Workload, seed: int, packets: int) -> Dict[str, float]:
    """The same chain and stream through the sequential OpenNetVM model."""
    env = Environment()
    server = OpenNetVMServer(env, DEFAULT_PARAMS, list(workload.chain))
    flows = FlowGenerator(num_flows=workload.flows, sizes=workload.sizes,
                          seed=seed, popularity=workload.popularity)
    TrafficSource(env, server.inject, workload.rate_mpps, packets,
                  flows=flows, seed=seed)
    env.run()
    return {"mean_us": server.latency.summary().mean, "lost": float(server.lost)}
