"""Install-time flattening of service graphs into per-stage programs.

The functional plane re-walks the graph object model for every packet:
stage list, copy-spec scan, per-entry label resolution.
:class:`CompiledGraph` does that walk *once per install* and keeps the
result as plain tuples -- per-stage ``(copies, entries)``, the merge ops
and, for a strictly sequential graph, the flat NF chain.

No execution plane under ``src/`` runs a compiled program yet.  The
flattening and :class:`~repro.dataplane.chaining.ChainingManager`'s
compile-once-per-install are kept because the performance lab
(``benchmarks/lab/layers.py``, which this repo's PRs may not edit)
imports and times the constructor as ``core.closure_compile_ms``, and
because it is where the one graph-execution kernel (ROADMAP) starts.
"""

from __future__ import annotations

from typing import List, Tuple

from .graph import ServiceGraph

__all__ = ["CompiledGraph"]


class CompiledGraph:
    """One service graph flattened into per-stage program tuples.

    Built once at table-install time (:class:`ChainingManager` keeps one
    per MID); holds no NF instances itself, so one compiled graph serves
    every flow and every instance assignment of the deployment.
    """

    __slots__ = ("graph", "sequential", "merge_ops", "program", "chain")

    def __init__(self, graph: ServiceGraph):
        self.graph = graph
        self.sequential = graph.is_sequential
        self.merge_ops = tuple(graph.merge_ops)
        program: List[tuple] = []
        for stage_index, stage in enumerate(graph.stages):
            copies = tuple(
                (spec.version, spec.header_only)
                for spec in graph.copies
                if spec.stage_index == stage_index
            )
            entries = tuple(
                (entry.node.name, entry.version) for entry in stage
            )
            program.append((copies, entries))
        #: Per-stage ``(copies, entries)`` tuples, declaration order.
        self.program: Tuple[tuple, ...] = tuple(program)
        #: NF names in chain order (sequential graphs only).
        self.chain: Tuple[str, ...] = (
            tuple(name for _, entries in self.program for name, _ in entries)
            if self.sequential
            else ()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "sequential" if self.sequential else "parallel"
        return f"CompiledGraph({self.graph.name!r}, {kind}, {len(self.program)} stages)"
