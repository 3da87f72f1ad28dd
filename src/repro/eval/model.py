"""Analytic capacity model: closed-form max lossless throughput.

Every core in the simulated dataplane is a deterministic single-server
queue, so the maximum lossless rate is exactly the reciprocal of the
largest per-packet service demand on any core (plus the NIC line-rate
cap).  The DES measures the same thing empirically; tests cross-validate
the two.  Benchmarks use the analytic value because it is exact and
instant.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from ..core.graph import ORIGINAL_VERSION, ServiceGraph
from ..core.partition import slice_subgraph
from ..net.packet import HEADER_COPY_BYTES
from ..sim.params import CPU_FREQ_MHZ, SimParams

__all__ = [
    "CapacityReport",
    "nfp_capacity",
    "placed_capacity",
    "onvm_capacity",
    "bess_capacity",
    "nfp_latency_floor",
]


class CapacityReport:
    """Max lossless throughput and the component that limits it."""

    __slots__ = ("mpps", "bottleneck", "demands")

    def __init__(self, mpps: float, bottleneck: str, demands: Dict[str, float]):
        self.mpps = mpps
        self.bottleneck = bottleneck
        #: per-component service demand in us/packet.
        self.demands = demands

    def __repr__(self) -> str:
        return f"CapacityReport({self.mpps:.2f} Mpps, bottleneck={self.bottleneck})"


def _finish(demands: Dict[str, float], line_rate: float) -> CapacityReport:
    demands = dict(demands)
    rates = {name: (1.0 / d if d > 0 else float("inf")) for name, d in demands.items()}
    rates["nic"] = line_rate
    bottleneck = min(rates, key=rates.get)
    return CapacityReport(rates[bottleneck], bottleneck, demands)


def _copy_cost(params: SimParams, header_only: bool, packet_size: int) -> float:
    nbytes = HEADER_COPY_BYTES if header_only else packet_size
    return params.copy_cost_us(nbytes)


def nfp_capacity(
    graph: ServiceGraph,
    params: SimParams,
    num_mergers: int = 1,
    packet_size: int = 64,
    extra_cycles: int = 0,
    scale: Optional[Mapping[str, int]] = None,
) -> CapacityReport:
    """Throughput of an NFP server running one service graph.

    Per-packet demand per core:

    * classifier: CT service (+ metadata when parallel) + stage-0 copies
      + stage-0 ring hops;
    * each NF: runtime + NF service (+ barrier-completer hops/copies,
      amortised onto the version's NFs);
    * merger: one completion per output packet, split across instances.

    ``scale`` (name -> instance count, §7) divides an NF's demand by its
    replica count: RSS splits the flow space, so each instance sees
    ``1/k`` of the load.
    """
    demands: Dict[str, float] = {}
    service = (
        params.classifier_tag_us
        if graph.has_parallelism
        else params.classifier_fwd_us
    )
    stage0 = graph.stages[0]
    for copy in graph.copies:
        if copy.stage_index == 0:
            service += _copy_cost(params, copy.header_only, packet_size)
    service += params.ring_hop_us * len(stage0.entries)
    demands["classifier"] = service

    for index, stage in enumerate(graph.stages):
        next_stage = graph.stages[index + 1] if index + 1 < len(graph.stages) else None
        for entry in stage:
            demand = params.nf_runtime_us + params.nf_service(
                entry.node.kind, extra_cycles
            )
            last = graph.last_stage_of_version(entry.version)
            if index == last:
                if graph.needs_merger:
                    demand += params.ring_hop_us
            elif next_stage is not None:
                # Forwarding work done once per version-barrier; amortise
                # over the version's NFs in this stage.
                peers = len(stage.entries_on(entry.version))
                hops = len(next_stage.entries_on(entry.version))
                cost = hops * params.ring_hop_us
                if entry.version == ORIGINAL_VERSION:
                    for copy in graph.copies:
                        if copy.stage_index == index + 1:
                            cost += _copy_cost(params, copy.header_only, packet_size)
                            cost += params.ring_hop_us * len(
                                next_stage.entries_on(copy.version)
                            )
                demand += cost / peers
            if scale:
                demand /= max(1, int(scale.get(entry.node.name, 1)))
            demands[entry.node.name] = demand

    if graph.needs_merger:
        demands["merger"] = params.merger_base_us / num_mergers

    return _finish(demands, params.line_rate_mpps(packet_size))


def placed_capacity(
    graph: ServiceGraph,
    slices: Sequence,
    params: SimParams,
    num_mergers: int = 1,
    packet_size: int = 64,
    scale: Optional[Mapping[str, int]] = None,
) -> CapacityReport:
    """Max lossless rate of a chain placed over several servers.

    Each slice runs as a standalone NFP server, so the chain's rate is
    the minimum over the slices' own bottlenecks; the winning component
    is reported as ``server<i>:<component>``.  Used by the placement
    solvers to check a candidate against a chain's [min,max] rate SLO.
    """
    demands: Dict[str, float] = {}
    for server_slice in slices:
        sub = slice_subgraph(graph, server_slice)
        report = nfp_capacity(
            sub, params, num_mergers=num_mergers, packet_size=packet_size,
            scale=scale,
        )
        for name, demand in report.demands.items():
            demands[f"server{server_slice.server_index}:{name}"] = demand
    return _finish(demands, params.line_rate_mpps(packet_size))


def onvm_capacity(
    chain: Sequence[str],
    params: SimParams,
    packet_size: int = 64,
    extra_cycles: int = 0,
) -> CapacityReport:
    """Throughput under OpenNetVM: manager-bound at 9.38 Mpps typically."""
    demands: Dict[str, float] = {
        "manager": params.onvm_manager_us + len(chain) * params.onvm_hop_op_us
    }
    for index, kind in enumerate(chain):
        demands[f"{kind}{index}"] = params.nf_runtime_us + params.nf_service(
            kind, extra_cycles
        )
    return _finish(demands, params.line_rate_mpps(packet_size))


def bess_capacity(
    chain: Sequence[str],
    params: SimParams,
    num_cores: int = 1,
    packet_size: int = 64,
    extra_cycles: int = 0,
) -> CapacityReport:
    """Throughput under BESS RTC with duplicated chains on k cores."""
    per_chain = len(chain) * extra_cycles / CPU_FREQ_MHZ
    demands = {"rtc": per_chain / num_cores}
    return _finish(demands, params.line_rate_mpps(packet_size))


def nfp_latency_floor(
    graph: ServiceGraph,
    params: SimParams,
    packet_size: int = 64,
    extra_cycles: int = 0,
) -> float:
    """Zero-load latency through an NFP graph (no queueing).

    The packet's critical path: NIC in, classifier, per stage the
    slowest NF on the path plus a pipeline hop, the merge rendezvous,
    NIC out.  Used by tests as a lower bound for DES measurements.
    """
    latency = params.nic_io_us  # ingress driver
    latency += (
        params.classifier_tag_us if graph.has_parallelism else params.classifier_fwd_us
    )
    for stage in graph.stages:
        latency += params.batch_wait_us
        latency += max(
            params.nf_runtime_us + params.nf_service(e.node.kind, extra_cycles)
            for e in stage
        )
    if graph.needs_merger:
        latency += params.merger_hop_latency_us
        latency += params.merger_base_us
        latency += params.merge_delay_us(graph.num_versions, graph.total_count)
    latency += params.nic_io_us
    latency += (packet_size + 20) * 8 / (params.nic_gbps * 1000.0)
    return latency
