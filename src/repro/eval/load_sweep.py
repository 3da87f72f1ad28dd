"""Offered-load sweeps: latency and loss vs input rate.

The classic NFV characterisation the paper's latency/throughput pairs
come from: drive a system at increasing offered loads and record the
delivered rate, loss, and latency at each point.  Below capacity the
delivered rate tracks the offered rate and latency stays near the
floor; past capacity the delivered rate plateaus at the bottleneck and
latency/loss blow up (the hockey stick).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Union

from ..core.graph import ServiceGraph
from ..core.policy import Policy
from ..dataplane.server import NFPServer
from ..sim import DEFAULT_PARAMS, Environment
from ..traffic.generator import FIXED_64B, FlowGenerator, TrafficSource
from .harness import as_graph, deployed_from_graph
from .model import nfp_capacity

__all__ = ["LoadPoint", "load_sweep"]


@dataclass
class LoadPoint:
    """One operating point of the sweep."""

    offered_mpps: float
    delivered_mpps: float
    loss_fraction: float
    latency_mean_us: float
    latency_p99_us: float

    @property
    def saturated(self) -> bool:
        return self.loss_fraction > 0.001


def load_sweep(
    target: Union[ServiceGraph, Policy, Sequence[str]],
    fractions: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 0.9, 1.1, 1.5),
    packets: int = 2500,
    seed: int = 1,
) -> List[LoadPoint]:
    """Measure the system at each fraction of its analytic capacity,
    with 64-byte packets."""
    graph = as_graph(target)
    params = DEFAULT_PARAMS
    capacity = nfp_capacity(graph, params).mpps

    points: List[LoadPoint] = []
    for fraction in fractions:
        rate = capacity * fraction
        env = Environment()
        server = NFPServer(env, params)
        server.deploy(deployed_from_graph(graph))
        flows = FlowGenerator(num_flows=64, sizes=FIXED_64B, seed=seed)
        TrafficSource(env, server.inject, rate, packets, flows=flows, seed=seed)
        env.run()

        total = server.rate.delivered + server.lost + server.nil_dropped
        loss = server.lost / total if total else 0.0
        if len(server.latency):
            summary = server.latency.summary()
            latency_mean = summary.mean
            latency_p99 = summary.p99
        else:  # pragma: no cover - everything lost
            latency_mean = latency_p99 = float("inf")
        span_rate = server.rate.mpps()
        points.append(
            LoadPoint(
                offered_mpps=rate,
                delivered_mpps=min(span_rate, rate),
                loss_fraction=loss,
                latency_mean_us=latency_mean,
                latency_p99_us=latency_p99,
            )
        )
    return points
