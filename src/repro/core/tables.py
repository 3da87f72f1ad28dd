"""Classification / Forwarding / Merging table generation (§4.4.3, §5).

At the end of graph construction the orchestrator emits three artifacts
(Fig. 4):

* a **Classification Table** (CT) for the classifier: flow match ->
  (MID, total copy count, merging operations, entry actions);
* per-NF **Forwarding Tables** (FT) for the distributed NF runtimes:
  MID -> actions (``distribute`` / ``copy`` / ``output``);
* the merging operations themselves live in the CT and are looked up by
  the merger through the MID.

Version-barrier note: when several NFs share one buffer inside a stage,
the forward/copy actions attached to them are executed once, by
whichever runtime completes the stage's version barrier (the dataplane
enforces this; see :mod:`repro.dataplane.server`).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence

from ..net.packet import encode_flow_key
from .graph import ORIGINAL_VERSION, MergeOp, ServiceGraph

__all__ = [
    "FTActionKind",
    "FTAction",
    "MERGER_TARGET",
    "OUTPUT_TARGET",
    "CTEntry",
    "ClassificationTable",
    "ForwardingTable",
    "TableSet",
    "build_tables",
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


class CTEntry:
    """One classification-table row (Fig. 4, left)."""

    __slots__ = ("match", "mid", "total_count", "merge_ops", "actions")

    def __init__(
        self,
        match: object,
        mid: int,
        total_count: int,
        merge_ops: Sequence[MergeOp],
        actions: Sequence[FTAction],
    ):
        self.match = match
        self.mid = mid
        self.total_count = total_count
        self.merge_ops = list(merge_ops)
        self.actions = list(actions)

    def __repr__(self) -> str:
        return (
            f"CTEntry(match={self.match!r}, mid={self.mid}, "
            f"count={self.total_count}, mos={self.merge_ops}, "
            f"actions={self.actions})"
        )


class ClassificationTable:
    """Flow match -> CT entry.

    Three match kinds, in lookup order: exact 5-tuple keys, ordered
    :class:`~repro.core.match.FlowMatch` predicates (first match wins),
    and the wildcard fallback.  A lookup takes a packet's flow key
    (``Packet.flow_key()``); an exact row's 5-tuple is encoded to those
    bytes once, at install.  A lookup with no key (``None``: the frame
    has none) falls to the wildcard row.
    """

    WILDCARD = "*"

    def __init__(self):
        self._exact: Dict[bytes, CTEntry] = {}
        self._predicates: List[CTEntry] = []
        self._wildcard: Optional[CTEntry] = None

    def install(self, entry: CTEntry) -> None:
        from .match import FlowMatch

        if entry.match == self.WILDCARD:
            self._wildcard = entry
        elif isinstance(entry.match, FlowMatch):
            # Reinstalling the same predicate (a recompiled or degraded
            # graph) replaces the old row in place; first-match-wins
            # lookup would otherwise shadow the update forever.
            for i, existing in enumerate(self._predicates):
                if existing.match == entry.match:
                    self._predicates[i] = entry
                    return
            self._predicates.append(entry)
        else:
            self._exact[encode_flow_key(entry.match)] = entry

    def lookup(self, key: Optional[bytes]) -> Optional[CTEntry]:
        if key is not None:
            entry = self._exact.get(key)
            if entry is not None:
                return entry
            for candidate in self._predicates:
                if candidate.match.matches(key):
                    return candidate
        return self._wildcard

    def by_mid(self, mid: int) -> CTEntry:
        for entry in self.entries():
            if entry.mid == mid:
                return entry
        raise KeyError(f"no CT entry with MID {mid}")

    def __len__(self) -> int:
        return (
            len(self._exact) + len(self._predicates)
            + (1 if self._wildcard is not None else 0)
        )

    def entries(self) -> List[CTEntry]:
        entries = list(self._exact.values()) + list(self._predicates)
        if self._wildcard is not None:
            entries.append(self._wildcard)
        return entries


class ForwardingTable:
    """Per-NF runtime table: MID -> action list (§5.2)."""

    def __init__(self, nf_name: str):
        self.nf_name = nf_name
        self._rules: Dict[int, List[FTAction]] = {}

    def install(self, mid: int, actions: Sequence[FTAction]) -> None:
        self._rules[mid] = list(actions)

    def lookup(self, mid: int) -> List[FTAction]:
        try:
            return self._rules[mid]
        except KeyError:
            raise KeyError(
                f"NF {self.nf_name!r} has no forwarding rule for MID {mid}"
            ) from None

    def mids(self) -> List[int]:
        return sorted(self._rules)

    def __repr__(self) -> str:
        return f"ForwardingTable({self.nf_name}, mids={self.mids()})"


class TableSet:
    """Everything the orchestrator installs for one service graph."""

    def __init__(
        self,
        mid: int,
        graph: ServiceGraph,
        ct_entry: CTEntry,
        forwarding: Dict[str, List[FTAction]],
    ):
        self.mid = mid
        self.graph = graph
        self.ct_entry = ct_entry
        self.forwarding = forwarding

    def __repr__(self) -> str:
        return f"TableSet(mid={self.mid}, graph={self.graph.describe()!r})"


def build_tables(
    graph: ServiceGraph, mid: int, match: object = ClassificationTable.WILDCARD
) -> TableSet:
    """Derive the CT entry and all FT rules for one compiled graph."""
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

    ct_entry = CTEntry(
        match=match,
        mid=mid,
        total_count=graph.total_count,
        merge_ops=graph.merge_ops,
        actions=classifier_actions,
    )

    # --- per-NF forwarding rules.
    forwarding: Dict[str, List[FTAction]] = {}
    for index, stage in enumerate(graph.stages):
        next_stage = graph.stages[index + 1] if index + 1 < len(graph.stages) else None
        for entry in stage:
            actions = _actions_for_entry(graph, index, entry, next_stage)
            forwarding[entry.node.name] = actions
    return TableSet(mid, graph, ct_entry, forwarding)


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
