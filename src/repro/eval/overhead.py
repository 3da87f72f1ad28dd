"""§6.3: NFP's overheads -- memory, copy/merge latency, merger scaling.

Three experiments:

* :func:`resource_overhead_curve` -- §6.3.1's equation
  ``ro = 64 x (d - 1) / s`` evaluated per packet size and degree, plus
  the data-center expectation ``ro = 0.088 x (d - 1)`` (8.8% at d=2),
  cross-checked against the simulated packet pool's accounting.
* :func:`copy_merge_penalty` -- §6.3.2's latency penalty of the copy
  variant vs the no-copy variant (the paper measures ~15 us for the
  firewall at degree 2).
* :func:`merger_scaling` -- §6.3.3: one merger instance's capacity and
  how instances share load (hashing on the immutable PID).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..net.packet import HEADER_COPY_BYTES
from ..sim import DEFAULT_PARAMS
from ..traffic.generator import DATACENTER_MIX, PacketSizeDistribution
from .forced import forced_parallel
from .harness import measure_nfp
from .model import nfp_capacity

__all__ = [
    "expected_overhead",
    "resource_overhead_curve",
    "copy_merge_penalty",
    "merger_scaling",
    "MergerScalingResult",
]


def expected_overhead(
    degree: int, sizes: PacketSizeDistribution = DATACENTER_MIX
) -> float:
    """ro averaged over a size distribution.

    The paper derives ``ro = 0.088 x (d - 1)`` from the data-center mix
    of [4]; copied bytes are compared against original traffic bytes, so
    the expectation is 64 x (d-1) / E[s].
    """
    return HEADER_COPY_BYTES * (degree - 1) / sizes.mean()


def resource_overhead_curve(packets: int = 1500) -> List[Tuple[int, float, float]]:
    """(degree, theoretical ro, simulated pool ro) rows, degrees 2-5.

    The simulated value comes from the packet pool's byte accounting
    while running the forced copy-parallel graph over the data-center
    size mix.
    """
    rows = []
    for degree in (2, 3, 4, 5):
        theory = expected_overhead(degree)
        result = measure_nfp(
            forced_parallel(["firewall"] * degree, with_copy=True),
            packets=packets, sizes=DATACENTER_MIX,
        )
        rows.append((degree, theory, result.resource_overhead))
    return rows


def copy_merge_penalty(packets: int = 3000) -> Tuple[float, float, float]:
    """§6.3.2: (no-copy latency, copy latency, penalty) for firewall d=2
    with a 300-cycle busy loop."""
    nocopy = measure_nfp(
        forced_parallel(["firewall", "firewall"], with_copy=False),
        packets=packets, extra_cycles=300,
    )
    copy = measure_nfp(
        forced_parallel(["firewall", "firewall"], with_copy=True),
        packets=packets, extra_cycles=300,
    )
    return (
        nocopy.latency_mean_us,
        copy.latency_mean_us,
        copy.latency_mean_us - nocopy.latency_mean_us,
    )


@dataclass
class MergerScalingResult:
    """§6.3.3 outcome: per-instance capacity and load split."""

    degree: int
    num_mergers: int
    capacity_mpps: float
    bottleneck: str
    lossless: bool
    per_merger_outputs: Dict[int, int]

    @property
    def imbalance(self) -> float:
        """max/mean outputs across merger instances (1.0 = balanced)."""
        counts = list(self.per_merger_outputs.values())
        if not counts or sum(counts) == 0:
            return 1.0
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 1.0


def merger_scaling(
    degree: int = 2,
    num_mergers: int = 1,
    packets: int = 3000,
) -> MergerScalingResult:
    """Run the forced-parallel firewall graph at 95% of its capacity and
    inspect the mergers.

    With one instance and degree 2 the capacity should land at the
    paper's ~10.7 Mpps; with two instances, the NIC/classifier becomes
    the limit even at degree 5.
    """
    from ..dataplane.server import NFPServer
    from ..sim import Environment
    from ..traffic.generator import FlowGenerator, TrafficSource
    from .harness import deployed_from_graph

    graph = forced_parallel(["firewall"] * degree, with_copy=False)
    capacity = nfp_capacity(graph, DEFAULT_PARAMS, num_mergers=num_mergers)

    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS, num_mergers=num_mergers)
    server.deploy(deployed_from_graph(graph))
    TrafficSource(
        env, server.inject, capacity.mpps * 0.95, packets,
        flows=FlowGenerator(num_flows=128),
    )
    env.run()

    return MergerScalingResult(
        degree=degree,
        num_mergers=num_mergers,
        capacity_mpps=capacity.mpps,
        bottleneck=capacity.bottleneck,
        lossless=server.lost == 0,
        per_merger_outputs={m.index: m.merged for m in server.mergers},
    )
