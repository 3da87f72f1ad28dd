"""Placement plans: candidate scoring, feasibility, and the deployable artifact.

The solvers produce and consume the same vocabulary:

* a **candidate** for one chain is ``(cuts, path)``: where to slice the
  compiled graph (:func:`repro.core.partition.partition_at`) and which
  server walk the slices occupy;
* :func:`evaluate_candidate` turns a candidate into a scored
  :class:`ChainPlacement` or a rejection reason, charging the calibrated
  latency model (per-link costs included) and checking the SLO, server
  core/memory capacity, link bandwidth, and the request's constraints
  against a mutable :class:`ResourceLedger`;
* a :class:`PlacementPlan` collects the accepted placements (plus their
  disjoint backups), the residual utilisation, and the chains that could
  not be placed -- *reported*, never silently violated.

The objective minimised throughout is the sum of predicted end-to-end
delays (us) across placed chains; ties naturally favour fewer hops
because every link costs real microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.partition import ServerSlice, partition_at
from ..multiserver.latency import estimate_placed_latency
from ..sim.params import SimParams
from .request import ChainRequest
from .topology import Link, Topology, TopologyError

__all__ = [
    "MEMORY_PER_NF_MB",
    "ResourceLedger",
    "ChainPlacement",
    "PlacementPlan",
    "enumerate_cuts",
    "evaluate_candidate",
]

#: Memory footprint charged per NF instance (buffer pool + state; MB).
MEMORY_PER_NF_MB = 256.0


class ResourceLedger:
    """Residual server cores/memory and link bandwidth during a solve."""

    def __init__(self, topology: Topology):
        self.topology = topology
        self.cores_used: Dict[str, int] = {n: 0 for n in topology.servers}
        self.memory_used: Dict[str, float] = {n: 0.0 for n in topology.servers}
        self.link_mpps: Dict[FrozenSet[str], float] = {
            link.key: 0.0 for link in topology.links
        }

    def copy(self) -> "ResourceLedger":
        clone = ResourceLedger(self.topology)
        clone.cores_used = dict(self.cores_used)
        clone.memory_used = dict(self.memory_used)
        clone.link_mpps = dict(self.link_mpps)
        return clone

    # ------------------------------------------------------------ checks
    def fits(self, placement: "ChainPlacement") -> Tuple[bool, str]:
        for server_name, cores, memory in placement.server_demands():
            server = self.topology.server(server_name)
            if self.cores_used[server_name] + cores > server.cores:
                return False, (
                    f"server {server_name}: needs {cores} cores, "
                    f"{server.cores - self.cores_used[server_name]} free"
                )
            if self.memory_used[server_name] + memory > server.memory_mb:
                return False, (
                    f"server {server_name}: needs {memory:.0f} MB, "
                    f"{server.memory_mb - self.memory_used[server_name]:.0f}"
                    f" MB free"
                )
        for link, mpps in placement.link_demands():
            cap = link.capacity_mpps(placement.request.packet_size)
            if self.link_mpps[link.key] + mpps > cap:
                return False, (
                    f"link {link.a}-{link.b}: needs {mpps:.2f} Mpps, "
                    f"{cap - self.link_mpps[link.key]:.2f} free"
                )
        return True, ""

    def commit(self, placement: "ChainPlacement") -> None:
        for server_name, cores, memory in placement.server_demands():
            self.cores_used[server_name] += cores
            self.memory_used[server_name] += memory
        for link, mpps in placement.link_demands():
            self.link_mpps[link.key] += mpps

    def release(self, placement: "ChainPlacement") -> None:
        for server_name, cores, memory in placement.server_demands():
            self.cores_used[server_name] -= cores
            self.memory_used[server_name] -= memory
        for link, mpps in placement.link_demands():
            self.link_mpps[link.key] -= mpps

    # --------------------------------------------------------- reporting
    def server_utilisation(self) -> Dict[str, float]:
        return {
            name: self.cores_used[name] / server.cores
            for name, server in self.topology.servers.items()
        }

    def link_utilisation(self) -> Dict[str, float]:
        """Link name -> share of its 64-byte packet rate in use."""
        report = {}
        for link in self.topology.links:
            cap = link.capacity_mpps(64)
            report[f"{link.a}-{link.b}"] = self.link_mpps[link.key] / cap
        return report


@dataclass
class ChainPlacement:
    """One chain mapped onto servers: the solvers' scored unit."""

    request: ChainRequest
    cuts: Tuple[int, ...]
    path: Tuple[str, ...]
    slices: List[ServerSlice]
    links: List[Link]
    #: Predicted zero-load end-to-end delay of this placement.
    delay_us: float
    #: Max lossless rate the placed slices sustain (min over servers).
    capacity_mpps: float
    #: What limits the capacity, e.g. ``server1:ids``.
    bottleneck: str = ""
    #: Filled by the backup planner: a server-disjoint standby.
    backup: Optional["ChainPlacement"] = None

    @property
    def num_servers(self) -> int:
        return len(self.path)

    def server_demands(self) -> List[Tuple[str, int, float]]:
        """(server, cores, memory MB) per hop; includes the +2 overhead."""
        return [
            (server_name, server_slice.total_cores,
             server_slice.nf_cores * MEMORY_PER_NF_MB)
            for server_name, server_slice in zip(self.path, self.slices)
        ]

    def link_demands(self) -> List[Tuple[Link, float]]:
        """Each crossed link carries the chain's worst-case rate once."""
        return [(link, self.request.slo.max_mpps) for link in self.links]

    def describe(self) -> str:
        route = " -> ".join(self.path)
        backup = (
            " (backup " + " -> ".join(self.backup.path) + ")"
            if self.backup else ""
        )
        return (
            f"{self.request.name}: {route}{backup}  "
            f"delay={self.delay_us:.1f}us cap={self.capacity_mpps:.2f}Mpps"
        )


@dataclass
class PlacementPlan:
    """Everything ``Orchestrator.place`` hands back."""

    topology: Topology
    placements: List[ChainPlacement] = field(default_factory=list)
    #: chain name -> reason it could not be placed.
    infeasible: Dict[str, str] = field(default_factory=dict)
    ledger: Optional[ResourceLedger] = None
    solver: str = ""
    #: chain name -> reason no disjoint backup could be reserved.
    unprotected: Dict[str, str] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return not self.infeasible

    @property
    def objective_us(self) -> float:
        """Total predicted delay across placed chains (lower is better)."""
        return sum(p.delay_us for p in self.placements)

    def placement_for(self, chain_name: str) -> ChainPlacement:
        for placement in self.placements:
            if placement.request.name == chain_name:
                return placement
        raise KeyError(f"no placement for chain {chain_name!r}")

    def describe(self) -> str:
        lines = [f"plan[{self.solver}] objective={self.objective_us:.1f}us"]
        lines.extend("  " + p.describe() for p in self.placements)
        for name, reason in self.infeasible.items():
            lines.append(f"  {name}: INFEASIBLE ({reason})")
        for name, reason in self.unprotected.items():
            lines.append(f"  {name}: UNPROTECTED ({reason})")
        return "\n".join(lines)


def enumerate_cuts(num_stages: int, max_slices: int) -> List[Tuple[int, ...]]:
    """Every cut vector producing at most ``max_slices`` slices.

    Ordered fewest-cuts-first so greedy consumers try cheap (link-free)
    slicings before fragmented ones.
    """
    from itertools import combinations

    vectors: List[Tuple[int, ...]] = []
    for count in range(0, min(max_slices - 1, num_stages - 1) + 1):
        vectors.extend(combinations(range(1, num_stages), count))
    return vectors


def evaluate_candidate(
    request: ChainRequest,
    cuts: Sequence[int],
    path: Sequence[str],
    topology: Topology,
    params: SimParams,
    ledger: ResourceLedger,
) -> Tuple[Optional[ChainPlacement], str]:
    """Score one candidate; returns (placement, "") or (None, reason).

    Checks, in order: shape (one server per slice, adjacent hops),
    constraint separation, per-server core fit under the ledger's
    residuals, link bandwidth at the SLO's max rate, rate SLO against
    the placed capacity, and the delay SLO against the calibrated
    per-link latency model.
    """
    from ..eval.model import placed_capacity  # local: avoids a cycle

    slices = partition_at(request.graph, cuts)
    if len(slices) != len(path):
        return None, (
            f"{len(slices)} slices need {len(slices)} servers, "
            f"path has {len(path)}"
        )
    if len(set(path)) != len(path):
        return None, "path revisits a server"
    if not request.cuts_ok(cuts):
        return None, "cut vector violates anti-affinity/partial-order"
    try:
        links = topology.path_links(path)
    except TopologyError as exc:
        return None, str(exc)

    report = placed_capacity(
        request.graph, slices, params, packet_size=request.packet_size
    )
    delay_us = estimate_placed_latency(
        request.graph, slices, links, params,
        packet_size=request.packet_size,
    )
    placement = ChainPlacement(
        request=request,
        cuts=tuple(sorted(cuts)),
        path=tuple(path),
        slices=slices,
        links=links,
        delay_us=delay_us,
        capacity_mpps=report.mpps,
        bottleneck=report.bottleneck,
    )

    fits, reason = ledger.fits(placement)
    if not fits:
        return None, reason
    if report.mpps < request.slo.max_mpps:
        return None, (
            f"capacity {report.mpps:.2f} Mpps < SLO max "
            f"{request.slo.max_mpps:.2f} (bottleneck {report.bottleneck})"
        )
    if delay_us > request.slo.max_delay_us:
        return None, (
            f"predicted delay {delay_us:.1f}us exceeds SLO "
            f"{request.slo.max_delay_us:.1f}us"
        )
    return placement, ""
