"""Chaining manager (§5, Fig. 3): holds installed tables for the server.

The orchestrator pushes a :class:`~repro.core.tables.TableSet` per
deployed graph; the chaining manager splits it -- the CT entry goes to
the classifier, each NF runtime receives its FT slice, and the mergers
look up total counts and MOs by MID.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..core.closures import CompiledGraph
from ..core.graph import ServiceGraph
from ..core.tables import ClassificationTable, CTEntry, FTAction, TableSet

__all__ = ["ChainingManager"]


class ChainingManager:
    """Table distribution point inside one NFP server."""

    def __init__(self):
        self.classification = ClassificationTable()
        self._forwarding: Dict[int, Dict[str, List[FTAction]]] = {}
        #: Install-time compiled programs, one per MID: the per-stage
        #: copies the server's classifier and version-1 barrier make,
        #: stated once so no per-packet path scans ``graph.copies``.
        self._compiled: Dict[int, CompiledGraph] = {}
        #: How many graph compilations ran (tests pin this to the number
        #: of installs, proving compilation stays off the packet path).
        self.closures_compiled = 0
        #: Called after every table (re)install; the classifier's flow
        #: cache registers here so no stale per-flow decision survives a
        #: graph recompile.
        self._install_listeners: List[Callable[[], None]] = []

    def on_install(self, listener: Callable[[], None]) -> None:
        """Register a callback fired after each table (re)install."""
        self._install_listeners.append(listener)

    def install(self, tables: TableSet) -> None:
        """Install a deployed graph's tables (classifier + runtimes)."""
        self.classification.install(tables.ct_entry)
        self._forwarding[tables.mid] = tables.forwarding
        self._compiled[tables.mid] = CompiledGraph(tables.graph)
        self.closures_compiled += 1
        for listener in self._install_listeners:
            listener()

    def graph_for(self, mid: int) -> ServiceGraph:
        try:
            return self._compiled[mid].graph
        except KeyError:
            raise KeyError(f"no graph installed for MID {mid}") from None

    def compiled_for(self, mid: int) -> CompiledGraph:
        try:
            return self._compiled[mid]
        except KeyError:
            raise KeyError(f"no compiled graph for MID {mid}") from None

    def ct_entry_for(self, mid: int) -> CTEntry:
        return self.classification.by_mid(mid)

    def ft_for(self, mid: int, nf_name: str) -> List[FTAction]:
        try:
            return self._forwarding[mid][nf_name]
        except KeyError:
            raise KeyError(
                f"no forwarding rules for NF {nf_name!r} under MID {mid}"
            ) from None

    def classify(self, key: object) -> Optional[CTEntry]:
        """Classifier lookup: exact match key, falling back to wildcard."""
        return self.classification.lookup(key)

    def mids(self) -> List[int]:
        return sorted(self._compiled)
