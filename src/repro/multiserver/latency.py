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

from typing import Optional, Sequence

from ..core.graph import ServiceGraph
from ..core.partition import ServerSlice, slice_subgraph
from ..sim.params import SimParams
from .nsh import NSH_LEN

__all__ = ["link_cost_us", "estimate_placed_latency"]


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


def estimate_placed_latency(
    graph: ServiceGraph,
    slices: Sequence[ServerSlice],
    links: Sequence,
    params: SimParams,
    packet_size: int = 64,
) -> float:
    """Zero-load latency (us) of an explicit placement over concrete links.

    ``links`` holds one entry per hop between consecutive slices; each
    entry exposes ``gbps`` and ``propagation_us`` (a
    :class:`repro.placement.topology.Link` does).
    """
    if len(links) != max(0, len(slices) - 1):
        raise ValueError(
            f"{len(slices)} slices need {max(0, len(slices) - 1)} links, "
            f"got {len(links)}"
        )
    from ..eval.model import nfp_latency_floor

    single = nfp_latency_floor(graph, params, packet_size=packet_size)
    slice_costs = [_slice_path_cost(graph, s, params) for s in slices]
    # Spread the fixed single-box overheads (NIC in/out, classifier,
    # final merge) over the partitioned total so the comparison isolates
    # the link penalty.
    fixed = single - sum(slice_costs)
    if slice_costs:
        slice_costs[0] += max(0.0, fixed)
    link_costs = [
        link_cost_us(params, packet_size, gbps=link.gbps,
                     propagation_us=link.propagation_us)
        for link in links
    ]
    return sum(slice_costs) + sum(link_costs)
