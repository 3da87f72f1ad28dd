"""Install-time flattening of service graphs into per-stage programs.

NFP's per-packet semantics are fixed once a graph is compiled: which
copies are due at each stage's entry, which NFs run in the stage and on
which version.  :class:`CompiledGraph` states that *once per install* as
plain tuples, so no per-packet path scans ``graph.copies`` or formats an
instance label.  The functional plane and each multi-server stage
execute (a slice of) the program, bound to their scale map, through the
one interpreter (:class:`repro.dataplane.functional.StageKernel`); the
DES server makes the same per-stage copies in its classifier and at its
version-1 barrier (:class:`~repro.dataplane.chaining.ChainingManager`
keeps one program per MID, unbound: instance membership stays with the
runtime groups).  The merge half of the install-time work is
:class:`repro.dataplane.merging.MergePlan`; the performance lab times
the one-argument constructor as ``core.closure_compile_ms``.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple

from .graph import CopySpec, ServiceGraph

__all__ = ["CompiledGraph", "instance_labels"]


def instance_labels(name: str, count: int) -> Tuple[str, ...]:
    """Labels of an NF's instances: the bare name, or ``name#k`` when
    replicated -- the one spelling every plane and telemetry use."""
    if count == 1:
        return (name,)
    return tuple(f"{name}#{k}" for k in range(count))


class CompiledGraph:
    """One service graph flattened into per-stage program tuples.

    ``scale`` (NF name -> instance count, default 1 each) binds every
    entry to its instance labels -- labels, never NF objects, so a plane
    may replace an instance (a fault restart) between two packets.
    Immutable: a membership change means a new ``CompiledGraph``.
    """

    __slots__ = ("graph", "program")

    def __init__(self, graph: ServiceGraph,
                 scale: Optional[Mapping[str, int]] = None):
        self.graph = graph
        copies: List[List[CopySpec]] = [[] for _ in graph.stages]
        for spec in graph.copies:
            copies[spec.stage_index].append(spec)
        counts = scale or {}
        #: Per stage ``(copies, entries)``: the copy specs due at its entry
        #: and, per NF, ``(version, count, labels, entry)``, both in
        #: declaration order.
        self.program: Tuple[tuple, ...] = tuple(
            (tuple(due), tuple(
                (entry.version, len(labels), labels, entry)
                for entry in stage
                for labels in [instance_labels(
                    entry.node.name, counts.get(entry.node.name, 1))]))
            for due, stage in zip(copies, graph.stages))
