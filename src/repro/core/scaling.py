"""NF scaling analysis (§7): sizing instance counts for a target rate.

"NFP can support NF scaling inside one server by allocating remaining
CPU cores to new NF instances with new IDs and constructing service
graphs containing these new instances."  This module does the sizing
arithmetic the orchestrator needs before doing that: given a compiled
graph, the calibrated timing model, and a target rate, how many
instances of each component are required, and does the server have the
cores?

The analysis uses the same per-core demand model as
:func:`repro.eval.model.nfp_capacity`: a component with per-packet
demand ``d`` µs sustains ``1/d`` Mpps per instance, so a target rate
``R`` needs ``ceil(R * d)`` instances (flows are RSS-split across
instances, which preserves per-flow ordering).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Union

from ..sim.params import SimParams
from .closures import instance_labels
from .graph import ServiceGraph

__all__ = ["ScalePlan", "ScaledGraph", "plan_scale_out", "scale_graph"]


@dataclass
class ScalePlan:
    """Instance counts per component to sustain ``target_mpps``."""

    target_mpps: float
    achievable_mpps: float
    instances: Dict[str, int] = field(default_factory=dict)
    #: components that cannot be replicated (the NIC).
    limiting: Optional[str] = None

    @property
    def feasible(self) -> bool:
        return self.limiting is None

    @property
    def total_nf_cores(self) -> int:
        return sum(self.instances.values())

    @property
    def merger_count(self) -> int:
        """How many merger instances the plan sized (>= 1)."""
        return max(1, self.instances.get("merger", 1))

    def nf_counts(self, graph: ServiceGraph) -> Dict[str, int]:
        """The plan's instance counts restricted to the graph's NFs.

        The plan also sizes the classifier and merger pool; those are
        not NF runtimes, so executing the plan needs just this slice
        (the merger count rides separately via :attr:`merger_count`).
        """
        return {name: max(1, self.instances.get(name, 1))
                for name in graph.nf_names()}

    def __str__(self) -> str:
        status = "feasible" if self.feasible else f"limited by {self.limiting}"
        parts = ", ".join(f"{n}x{c}" for n, c in sorted(self.instances.items()))
        return (
            f"ScalePlan({self.target_mpps:.2f} Mpps -> "
            f"{self.achievable_mpps:.2f} Mpps, {status}: {parts})"
        )


def plan_scale_out(
    graph: ServiceGraph,
    params: SimParams,
    target_mpps: float,
    packet_size: int = 64,
    available_cores: Optional[int] = None,
    num_mergers: int = 1,
) -> ScalePlan:
    """Compute the instance counts needed to sustain ``target_mpps``.

    Components (classifier, every NF, the merger pool) are replicated
    independently; the NIC line rate is the only hard ceiling.  When
    ``available_cores`` is given, the plan is truncated to what fits
    and ``achievable_mpps`` reports the resulting best rate.
    """
    if target_mpps <= 0:
        raise ValueError("target rate must be positive")
    from ..eval.model import nfp_capacity

    line_rate = params.line_rate_mpps(packet_size)
    capacity = nfp_capacity(
        graph, params, num_mergers=num_mergers, packet_size=packet_size
    )

    if target_mpps > line_rate:
        return ScalePlan(
            target_mpps=target_mpps,
            achievable_mpps=line_rate,
            instances={name: 1 for name in capacity.demands},
            limiting="nic",
        )

    instances: Dict[str, int] = {}
    for name, demand in capacity.demands.items():
        instances[name] = max(1, math.ceil(target_mpps * demand - 1e-9))

    plan = ScalePlan(
        target_mpps=target_mpps,
        achievable_mpps=min(
            line_rate,
            min(
                instances[name] / demand if demand > 0 else float("inf")
                for name, demand in capacity.demands.items()
            ),
        ),
        instances=instances,
    )

    if available_cores is not None and plan.total_nf_cores > available_cores:
        # Greedily strip instances from the least-pressured components
        # until the plan fits, then report the degraded rate.
        while plan.total_nf_cores > available_cores:
            candidates = [n for n, c in plan.instances.items() if c > 1]
            if not candidates:
                break
            # Remove where the per-instance headroom is largest.
            slack = {
                n: plan.instances[n] / capacity.demands[n] - target_mpps
                for n in candidates
            }
            victim = max(slack, key=slack.get)
            plan.instances[victim] -= 1
        plan.achievable_mpps = min(
            line_rate,
            min(
                plan.instances[name] / demand if demand > 0 else float("inf")
                for name, demand in capacity.demands.items()
            ),
        )
    return plan


class ScaledGraph:
    """A service graph plus executable instance counts (§7).

    "NFP can support NF scaling inside one server by allocating
    remaining CPU cores to new NF instances with new IDs" -- this is
    that artifact: the compiled graph unchanged, each NF annotated with
    an instance count, and every replicated instance given a fresh
    instance ID and a stable label (``name#k``) that both dataplanes
    and telemetry use.  Flows are pinned to one instance per NF by the
    shared RSS split (:mod:`repro.dataplane.flowsplit`), which is what
    preserves per-flow order across the scale-out.
    """

    __slots__ = ("base", "counts", "instance_ids")

    def __init__(self, base: ServiceGraph, counts: Mapping[str, int]):
        names = base.nf_names()
        unknown = sorted(set(counts) - set(names))
        if unknown:
            raise ValueError(f"scale names not in graph: {unknown}")
        self.base = base
        self.counts: Dict[str, int] = {}
        for name in names:
            count = int(counts.get(name, 1))
            if count < 1:
                raise ValueError(f"scale for {name!r} must be >= 1")
            self.counts[name] = count
        #: New IDs per instance, allocated densely in graph order.
        self.instance_ids: Dict[str, int] = {}
        next_id = 1
        for name in names:
            for label in self.labels(name):
                self.instance_ids[label] = next_id
                next_id += 1

    def labels(self, name: str) -> List[str]:
        """Instance labels for one NF: ``[name]`` or ``[name#0, ...]``."""
        return list(instance_labels(name, self.counts[name]))

    def rescaled(self, name: str, count: int) -> "ScaledGraph":
        """A copy of this artifact with one NF's instance count changed.

        The autoscaler's control-plane record: live membership change on
        the dataplane is mirrored here so ``Orchestrator.deploy`` state
        and the running server agree on the instance set.
        """
        if name not in self.counts:
            raise ValueError(f"{name!r} is not an NF of this graph")
        if count < 1:
            raise ValueError(f"scale for {name!r} must be >= 1")
        counts = dict(self.counts)
        counts[name] = count
        return ScaledGraph(self.base, counts)

    def describe(self) -> str:
        parts = ", ".join(
            f"{name}x{count}" for name, count in self.counts.items())
        return f"{self.base.describe()} scaled[{parts}]"

    def __repr__(self) -> str:
        return f"ScaledGraph({self.describe()!r})"


def scale_graph(
    graph: ServiceGraph,
    scale: Union[int, ScalePlan, Mapping[str, int]],
) -> ScaledGraph:
    """Normalise any scale spec into an executable :class:`ScaledGraph`.

    Accepts a uniform instance count (int), a :class:`ScalePlan` (its
    NF slice is taken; classifier/merger sizing is ignored here), or an
    explicit name -> count mapping.
    """
    if isinstance(scale, ScalePlan):
        return ScaledGraph(graph, scale.nf_counts(graph))
    if isinstance(scale, int):
        if scale < 1:
            raise ValueError("uniform scale must be >= 1")
        return ScaledGraph(graph, {name: scale for name in graph.nf_names()})
    return ScaledGraph(graph, scale)
