"""Cross-server graph partitioning (§7 "NFP Scalability", future work).

When a graph has more NFs than one server has cores, the paper sketches
the constraint for splitting it: "each server sends only one copy of a
packet to the next server", so cross-server parallelism never inflates
network bandwidth.

We implement that sketch: a service graph is cut at *stage boundaries*
(a stage never spans servers, since its NFs exchange shared-memory
references), greedily packing consecutive stages onto servers under a
per-server core budget.  Because copies other than version 1 live and
die within a single stage (they are merged into v1 by the stage's
merge semantics before any cross-server hop), every inter-server link
carries exactly one packet copy -- the paper's constraint.
"""

from __future__ import annotations

from typing import List, Sequence

from .graph import ORIGINAL_VERSION, CopySpec, ServiceGraph, Stage

__all__ = [
    "ServerSlice",
    "partition_graph",
    "partition_at",
    "first_fit_cuts",
    "slice_subgraph",
    "PartitionError",
]

#: Cores a server must reserve beyond NFs: classifier + merger (§6).
_OVERHEAD_CORES = 2

#: Most servers one graph may be split over.
MAX_SERVERS = 64


class PartitionError(ValueError):
    """Raised when a graph cannot fit the given servers."""


class ServerSlice:
    """The stages assigned to one server, with core accounting."""

    def __init__(self, server_index: int, stages: Sequence[Stage]):
        self.server_index = server_index
        self.stages = list(stages)

    @property
    def nf_cores(self) -> int:
        return sum(len(stage) for stage in self.stages)

    @property
    def total_cores(self) -> int:
        return self.nf_cores + _OVERHEAD_CORES

    def nf_names(self) -> List[str]:
        return [e.node.name for stage in self.stages for e in stage]

    def __repr__(self) -> str:
        return (
            f"ServerSlice(server={self.server_index}, "
            f"nfs={self.nf_names()}, cores={self.total_cores})"
        )


def partition_at(graph: ServiceGraph, cuts: Sequence[int]) -> List[ServerSlice]:
    """Slice ``graph`` at explicit stage boundaries.

    ``cuts`` lists the stage indices that *start* a new server (index 0
    is implicit): ``cuts=(2,)`` over four stages yields slices
    ``[0,1]`` and ``[2,3]``.  This is the placement solvers' primitive:
    they search over cut vectors instead of trusting the greedy
    first-fit of :func:`partition_graph`.  Slices reuse the graph's own
    :class:`~repro.core.graph.Stage` objects so :func:`slice_subgraph`
    can rebase them.
    """
    bounds = sorted(set(cuts))
    if any(not 0 < cut < len(graph.stages) for cut in bounds):
        raise PartitionError(
            f"cut indices must fall inside (0, {len(graph.stages)}); got {cuts}"
        )
    starts = [0] + bounds
    ends = bounds + [len(graph.stages)]
    return [
        ServerSlice(index, graph.stages[start:end])
        for index, (start, end) in enumerate(zip(starts, ends))
    ]


def partition_graph(graph: ServiceGraph, cores_per_server: int) -> List[ServerSlice]:
    """Split ``graph`` across servers at stage boundaries.

    Greedy first-fit over consecutive stages.  Raises
    :class:`PartitionError` when a single stage needs more NF cores than
    one server offers, or when the graph needs more than
    :data:`MAX_SERVERS` servers.

    The returned slices satisfy the paper's bandwidth constraint by
    construction: only version 1 crosses a slice boundary.
    """
    if cores_per_server <= _OVERHEAD_CORES:
        raise PartitionError(
            f"need more than {_OVERHEAD_CORES} cores per server "
            "(classifier + merger overhead)"
        )
    budget = cores_per_server - _OVERHEAD_CORES
    for stage in graph.stages:
        if len(stage) > budget:
            raise PartitionError(
                f"stage with {len(stage)} parallel NFs cannot fit a server "
                f"offering {budget} NF cores"
            )
    cuts = first_fit_cuts(graph, budget)
    if len(cuts) + 1 > MAX_SERVERS:
        raise PartitionError(
            f"graph needs {len(cuts) + 1} servers, more than {MAX_SERVERS}"
        )
    return partition_at(graph, cuts)


def first_fit_cuts(graph: ServiceGraph, budget: int) -> List[int]:
    """Greedy first-fit over consecutive stages: the indices of the
    stages that start a new server (index 0 is implicit), each server
    taking stages while their NFs fit ``budget`` cores.  A stage larger
    than the budget gets a server of its own."""
    cuts: List[int] = []
    used = 0
    for index, stage in enumerate(graph.stages):
        need = len(stage)
        if index and used + need > budget:
            cuts.append(index)
            used = 0
        used += need
    return cuts


def slice_subgraph(graph: ServiceGraph, server_slice: ServerSlice) -> ServiceGraph:
    """A slice re-expressed as a standalone service graph.

    Stage indices of copy specs are rebased to the slice.  Copy versions
    are stage-local, so each graph MO belongs to exactly one slice --
    the one holding the stage where its source version runs -- and the
    slice keeps those (v1 carries everything else onward).  Every plane
    runs a server's slice as this graph, compiled like any other.
    """
    offset = graph.stages.index(server_slice.stages[0])
    copies = [
        CopySpec(c.stage_index - offset, c.version, c.header_only)
        for c in graph.copies
        if 0 <= c.stage_index - offset < len(server_slice.stages)
    ]
    local_versions = {
        entry.version
        for stage in server_slice.stages
        for entry in stage
        if entry.version != ORIGINAL_VERSION
    }
    return ServiceGraph(
        server_slice.stages,
        copies=copies,
        merge_ops=[op for op in graph.merge_ops
                   if op.src_version in local_versions],
        name=f"{graph.name}[server{server_slice.server_index}]",
    )
