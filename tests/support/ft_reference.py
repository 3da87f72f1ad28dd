"""The Forwarding Table derivation: the differential oracle for the Fig. 4 view.

Until the step table became the only routing artefact
(``repro.core.closures.CompiledGraph``), ``build_tables`` built a second
description of each graph's routing on every deploy: an ``FTAction``
list per NF and the classifier's entry actions on the CT row, derived
straight from the graph object model.  No packet path read it; it was
printed by ``compile --verbose`` and the quickstart.  This module is
that code -- ``FTActionKind``, ``FTAction`` (its repr is the printed
form), ``MERGER_TARGET`` / ``OUTPUT_TARGET`` and the two action
derivations -- moved verbatim from ``src/repro/core/tables.py``, plus the
old ``CTEntry`` repr as a format string.

``tests/property/test_table_view_differential.py`` holds
``repro.core.closures.table_view`` to it on the fuzzer's graphs.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.graph import ORIGINAL_VERSION, ServiceGraph

__all__ = [
    "FTActionKind",
    "FTAction",
    "MERGER_TARGET",
    "OUTPUT_TARGET",
    "reference_table_view",
]

#: Symbolic forwarding targets.
MERGER_TARGET = "@merger"
OUTPUT_TARGET = "@output"


class FTActionKind(enum.Enum):
    DISTRIBUTE = "distribute"
    COPY = "copy"
    OUTPUT = "output"
    IGNORE = "ignore"


class FTAction:
    """One forwarding-table action (§5.2's four action types)."""

    __slots__ = ("kind", "version", "targets", "new_version", "header_only")

    def __init__(
        self,
        kind: FTActionKind,
        version: int = ORIGINAL_VERSION,
        targets: Sequence[str] = (),
        new_version: Optional[int] = None,
        header_only: bool = True,
    ):
        self.kind = kind
        self.version = version
        self.targets = list(targets)
        self.new_version = new_version
        self.header_only = header_only
        if kind is FTActionKind.COPY and new_version is None:
            raise ValueError("copy action needs a new version")
        if kind is FTActionKind.DISTRIBUTE and not self.targets:
            raise ValueError("distribute action needs targets")

    def __repr__(self) -> str:
        if self.kind is FTActionKind.DISTRIBUTE:
            return f"distribute(v{self.version}, {self.targets})"
        if self.kind is FTActionKind.COPY:
            mode = "hdr" if self.header_only else "full"
            return f"copy(v{self.version}, v{self.new_version}, {mode})"
        if self.kind is FTActionKind.OUTPUT:
            return f"output(v{self.version})"
        return "ignore"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FTAction) and repr(self) == repr(other)

    def __hash__(self) -> int:
        return hash(repr(self))


def reference_table_view(
    graph: ServiceGraph, mid: int, match: object = "*"
) -> Tuple[str, Dict[str, str]]:
    """The CT row and ``FT[nf]`` action lists as the old code printed them."""
    # --- classifier actions: copies for stage-0 versions, then dispatch.
    classifier_actions: List[FTAction] = []
    stage0 = graph.stages[0]
    for copy in sorted(graph.copies, key=lambda c: c.version):
        if copy.stage_index == 0:
            classifier_actions.append(
                FTAction(
                    FTActionKind.COPY,
                    version=ORIGINAL_VERSION,
                    new_version=copy.version,
                    header_only=copy.header_only,
                )
            )
    for version in sorted(stage0.versions()):
        targets = [e.node.name for e in stage0.entries_on(version)]
        classifier_actions.append(
            FTAction(FTActionKind.DISTRIBUTE, version=version, targets=targets)
        )
    ct_row = (
        f"CTEntry(match={match!r}, mid={mid}, "
        f"count={graph.total_count}, mos={list(graph.merge_ops)}, "
        f"actions={classifier_actions})"
    )

    # --- per-NF forwarding rules.
    forwarding: Dict[str, List[FTAction]] = {}
    for index, stage in enumerate(graph.stages):
        next_stage = graph.stages[index + 1] if index + 1 < len(graph.stages) else None
        for entry in stage:
            actions = _actions_for_entry(graph, index, entry, next_stage)
            forwarding[entry.node.name] = actions
    return ct_row, {nf: repr(actions) for nf, actions in forwarding.items()}


def _actions_for_entry(graph, stage_index, entry, next_stage) -> List[FTAction]:
    version = entry.version
    last_stage = graph.last_stage_of_version(version)
    if stage_index == last_stage:
        if graph.needs_merger:
            return [
                FTAction(
                    FTActionKind.DISTRIBUTE, version=version, targets=[MERGER_TARGET]
                )
            ]
        return [FTAction(FTActionKind.OUTPUT, version=version)]

    # The version continues: forward to the next stage (executed by the
    # barrier completer), creating any versions that start there.
    assert next_stage is not None
    actions: List[FTAction] = []
    for copy in sorted(graph.copies, key=lambda c: c.version):
        if copy.stage_index == stage_index + 1 and version == ORIGINAL_VERSION:
            actions.append(
                FTAction(
                    FTActionKind.COPY,
                    version=ORIGINAL_VERSION,
                    new_version=copy.version,
                    header_only=copy.header_only,
                )
            )
            targets = [e.node.name for e in next_stage.entries_on(copy.version)]
            actions.append(
                FTAction(
                    FTActionKind.DISTRIBUTE, version=copy.version, targets=targets
                )
            )
    targets = [e.node.name for e in next_stage.entries_on(version)]
    if targets:
        actions.append(
            FTAction(FTActionKind.DISTRIBUTE, version=version, targets=targets)
        )
    return actions
