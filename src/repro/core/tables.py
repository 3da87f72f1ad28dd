"""Classification table generation (§4.4.3, §5).

At the end of graph construction the paper's orchestrator emits three
artifacts (Fig. 4): a **Classification Table** (CT) row per graph (flow
match -> MID), per-NF **Forwarding Tables** (FT) and the merging
operations.  Here the CT row is the only table built: everything the
FTs and the mergers state -- the classifier's copies and fan-out, each
NF's next hop, the total count and the MOs -- is the MID's install-time
:class:`~repro.core.closures.CompiledGraph` (its step table and merge
plan), which is what every plane executes.  The FT of Fig. 4 is a view
of that record (:func:`repro.core.closures.table_view`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..net.packet import encode_flow_key
from .graph import ServiceGraph

__all__ = [
    "CTEntry",
    "ClassificationTable",
    "TableSet",
    "build_tables",
]


class CTEntry:
    """One classification-table row (Fig. 4, left): flow match -> MID."""

    __slots__ = ("match", "mid")

    def __init__(self, match: object, mid: int):
        self.match = match
        self.mid = mid

    def __repr__(self) -> str:
        return f"CTEntry(match={self.match!r}, mid={self.mid})"


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


class TableSet:
    """Everything the orchestrator installs for one service graph."""

    def __init__(self, mid: int, graph: ServiceGraph, ct_entry: CTEntry):
        self.mid = mid
        self.graph = graph
        self.ct_entry = ct_entry

    def __repr__(self) -> str:
        return f"TableSet(mid={self.mid}, graph={self.graph.describe()!r})"


def build_tables(
    graph: ServiceGraph, mid: int, match: object = ClassificationTable.WILDCARD
) -> TableSet:
    """The CT row for one compiled graph; the installer compiles the rest."""
    return TableSet(mid, graph, CTEntry(match, mid))
