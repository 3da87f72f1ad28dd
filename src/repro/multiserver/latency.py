"""Latency model for cross-server graphs.

Splitting a graph over servers trades cores for inter-server hops; this
module quantifies the trade under the calibrated timing model.  Each
link costs a NIC transmit + wire serialisation (frame + 16 B NSH shim)
+ NIC receive, plus the usual pipeline batch residency at the next
server's ingress.  Links may be heterogeneous: every hop carries its
own bandwidth and propagation delay, so a placement over a real
topology prices each hop it actually crosses.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.graph import ServiceGraph
from ..core.partition import ServerSlice, partition_graph, slice_subgraph
from ..sim.params import SimParams
from .nsh import NSH_LEN

__all__ = [
    "link_cost_us",
    "estimate_cross_server_latency",
    "estimate_placed_latency",
    "CrossServerLatency",
]


def link_cost_us(
    params: SimParams,
    packet_size: int,
    gbps: Optional[float] = None,
    propagation_us: float = 0.0,
) -> float:
    """One inter-server hop's latency penalty vs a single box.

    The intermediate server pays an *extra* NIC egress (the single box
    pays only one, at the very end), the frame crosses the link (tx
    driver + wire serialisation of frame + shim at the link's own rate,
    plus its propagation delay), and the next server pays a NIC ingress
    plus a fresh classification.  ``gbps`` defaults to the NIC rate of
    ``params`` (the homogeneous cluster of the paper's §7 sketch).
    Validated against the timed multi-server DES in
    ``tests/integration/test_timed_multiserver.py``.
    """
    rate_gbps = params.nic_gbps if gbps is None else gbps
    if rate_gbps <= 0:
        raise ValueError("link bandwidth must be positive")
    wire_bits = (packet_size + NSH_LEN + 20) * 8
    wire_us = wire_bits / (rate_gbps * 1000.0)
    return 3 * params.nic_io_us + wire_us + params.classifier_tag_us + propagation_us


class CrossServerLatency:
    """Breakdown of a partitioned graph's zero-load latency.

    ``link_costs_us`` holds one entry per hop, so heterogeneous
    topologies price each link individually.
    """

    def __init__(
        self,
        single_server_us: float,
        slice_costs_us: List[float],
        link_costs_us: Sequence[float],
    ):
        self.single_server_us = single_server_us
        self.slice_costs_us = slice_costs_us
        self.link_costs_us = list(link_costs_us)
        if len(self.link_costs_us) != max(0, len(slice_costs_us) - 1):
            raise ValueError(
                f"{len(slice_costs_us)} slices need "
                f"{max(0, len(slice_costs_us) - 1)} link costs, "
                f"got {len(self.link_costs_us)}"
            )

    @property
    def num_servers(self) -> int:
        return len(self.slice_costs_us)

    @property
    def num_links(self) -> int:
        return max(0, self.num_servers - 1)

    @property
    def total_us(self) -> float:
        return sum(self.slice_costs_us) + sum(self.link_costs_us)

    @property
    def penalty_us(self) -> float:
        """Extra latency versus running the whole graph on one box."""
        return self.total_us - self.single_server_us

    def __repr__(self) -> str:
        return (
            f"CrossServerLatency({self.num_servers} servers, "
            f"{self.total_us:.1f}us total, +{self.penalty_us:.1f}us vs single)"
        )


def _slice_path_cost(
    graph: ServiceGraph, server_slice: ServerSlice, params: SimParams
) -> float:
    """Critical-path cost of one slice: per-stage hop + slowest NF, then
    the rendezvous of the slice's own merge (a slice runs as its own
    subgraph, so it is priced as one)."""
    cost = 0.0
    for stage in server_slice.stages:
        cost += params.batch_wait_us
        cost += max(
            params.nf_runtime_us + params.nf_service(entry.node.kind)
            for entry in stage
        )
    local = slice_subgraph(graph, server_slice)
    if local.needs_merger:
        cost += params.merge_delay_us(local.num_versions, local.total_count)
    return cost


def _assemble(
    graph: ServiceGraph,
    slices: Sequence[ServerSlice],
    params: SimParams,
    packet_size: int,
    link_costs_us: Sequence[float],
) -> CrossServerLatency:
    from ..eval.model import nfp_latency_floor

    single = nfp_latency_floor(graph, params, packet_size=packet_size)
    slice_costs = [_slice_path_cost(graph, s, params) for s in slices]
    # Spread the fixed single-box overheads (NIC in/out, classifier,
    # final merge) over the partitioned total so the comparison isolates
    # the link penalty.
    fixed = single - sum(slice_costs)
    if slice_costs:
        slice_costs[0] += max(0.0, fixed)
    return CrossServerLatency(
        single_server_us=single,
        slice_costs_us=slice_costs,
        link_costs_us=list(link_costs_us),
    )


def estimate_cross_server_latency(
    graph: ServiceGraph,
    params: SimParams,
    cores_per_server: int,
    packet_size: int = 64,
) -> CrossServerLatency:
    """Zero-load latency of the partitioned graph vs the single-box run."""
    slices = partition_graph(graph, cores_per_server)
    each = link_cost_us(params, packet_size)
    return _assemble(
        graph, slices, params, packet_size,
        [each] * max(0, len(slices) - 1),
    )


def estimate_placed_latency(
    graph: ServiceGraph,
    slices: Sequence[ServerSlice],
    links: Sequence,
    params: SimParams,
    packet_size: int = 64,
) -> CrossServerLatency:
    """Zero-load latency of an explicit placement over concrete links.

    ``links`` holds one entry per hop between consecutive slices; each
    entry exposes ``gbps`` and ``propagation_us`` (a
    :class:`repro.placement.topology.Link` does).
    """
    if len(links) != max(0, len(slices) - 1):
        raise ValueError(
            f"{len(slices)} slices need {max(0, len(slices) - 1)} links, "
            f"got {len(links)}"
        )
    costs = [
        link_cost_us(params, packet_size, gbps=link.gbps,
                     propagation_us=link.propagation_us)
        for link in links
    ]
    return _assemble(graph, slices, params, packet_size, costs)
