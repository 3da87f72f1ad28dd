"""Forced graph constructions for the paper's synthetic setups (Fig. 10).

§6.2.2's experiment compares, for two instances of the *same* NF:

1. sequential composition,
2. parallel composition sharing one buffer (distribute -> merge), and
3. parallel composition with packet copying (copy -> merge),

regardless of what the dependency analysis would decide -- the setups
are forced.  These helpers build such graphs directly, bypassing the
compiler, for Figs. 8, 9, 11 and 12.
"""

from __future__ import annotations

from typing import List, Sequence

from ..core.action_table import default_action_table
from ..core.compiler import NFPCompiler
from ..core.graph import (
    ORIGINAL_VERSION,
    CopySpec,
    NFNode,
    ServiceGraph,
    Stage,
    StageEntry,
)

__all__ = [
    "forced_sequential",
    "forced_parallel",
    "forced_structure",
]


def _nodes(kinds: Sequence[str]) -> List[NFNode]:
    table = default_action_table()
    return [NFNode(f"{kind}{index}", kind, table.fetch(kind), priority=index)
            for index, kind in enumerate(kinds)]


def forced_sequential(kinds: Sequence[str]) -> ServiceGraph:
    """Setup (1): a plain sequential chain."""
    return ServiceGraph.sequential(_nodes(kinds), name="forced-seq")


def forced_parallel(
    kinds: Sequence[str],
    with_copy: bool,
    header_only: bool = True,
) -> ServiceGraph:
    """Setups (2)/(3): all NFs in one parallel stage.

    ``with_copy=False`` puts every NF on the shared original buffer
    (distribute -> merge); ``with_copy=True`` gives every NF after the
    first its own copy version (copy -> merge), the §6.2.2 "copy" bars.
    """
    nodes = _nodes(kinds)
    copies: List[CopySpec] = []
    entries: List[StageEntry] = []
    for index, node in enumerate(nodes):
        if with_copy and index > 0:
            version = ORIGINAL_VERSION + index
            copies.append(
                CopySpec(
                    0,
                    version,
                    header_only=header_only and not NFPCompiler._touches_payload(node.profile),
                )
            )
            entries.append(StageEntry(node, version))
        else:
            entries.append(StageEntry(node, ORIGINAL_VERSION))
    stages = [Stage(entries)]
    merge_ops = _value_merge_ops(stages)
    return ServiceGraph(stages, copies, merge_ops, name="forced-par")


def _value_merge_ops(stages):
    """Merge ops for forced graphs: field modifies only.

    Forced-parallel setups can duplicate structural NFs (two VPNs both
    adding an AH), where sequential semantics would be double
    encapsulation -- the paper's forced experiments measure timing, not
    semantics, so structural add/remove MOs are omitted.
    """
    from ..core.graph import MergeOpKind

    return [
        op
        for op in NFPCompiler._merge_ops(stages)
        if op.kind is MergeOpKind.MODIFY
    ]


def forced_structure(
    kinds: Sequence[str],
    structure: Sequence[int],
    with_copy: bool = False,
) -> ServiceGraph:
    """Build one of Fig. 14's graph shapes.

    ``structure`` lists the width of each stage, e.g. ``[1, 2, 1]`` is
    Fig. 14(4); widths must sum to ``len(kinds)``.  Within a stage,
    ``with_copy`` assigns each NF beyond the first its own copy version.
    """
    if sum(structure) != len(kinds):
        raise ValueError("structure widths must sum to the NF count")
    if any(w <= 0 for w in structure):
        raise ValueError("stage widths must be positive")
    nodes = _nodes(kinds)
    stages: List[Stage] = []
    copies: List[CopySpec] = []
    next_version = ORIGINAL_VERSION + 1
    cursor = 0
    for stage_index, width in enumerate(structure):
        entries = []
        for slot in range(width):
            node = nodes[cursor]
            cursor += 1
            if with_copy and slot > 0:
                copies.append(CopySpec(stage_index, next_version, header_only=True))
                entries.append(StageEntry(node, next_version))
                next_version += 1
            else:
                entries.append(StageEntry(node, ORIGINAL_VERSION))
        stages.append(Stage(entries))
    merge_ops = _value_merge_ops(stages)
    return ServiceGraph(stages, copies, merge_ops, name="forced-structure")
