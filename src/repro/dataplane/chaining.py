"""Chaining manager (§5, Fig. 3): holds installed tables for the server.

The orchestrator pushes a :class:`~repro.core.tables.TableSet` per
deployed graph: its CT row goes to the classifier, and its graph is
compiled here, once per install, into one record per MID
(:class:`~repro.core.closures.CompiledGraph`: stage program, step
table, stage-0 fan-out, merge plan).  That record is the paper's
Forwarding Tables and merging operations in executable form: the
classifier, every NF completion and the mergers read it, never the
graph, so a table set installed through :meth:`ChainingManager.install`
alone is complete.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..core.closures import CompiledGraph
from ..core.graph import ServiceGraph
from ..core.tables import ClassificationTable, CTEntry, TableSet
from .merging import MergePlan

__all__ = ["ChainingManager"]


class ChainingManager:
    """Table distribution point inside one NFP server."""

    def __init__(self):
        self.classification = ClassificationTable()
        #: Install-time compiled records, one per MID: everything the
        #: server's classifier, NF completions and mergers read of a
        #: graph, stated once so no per-packet path derives it.
        self._compiled: Dict[int, CompiledGraph] = {}
        #: How many graph compilations ran (tests pin this to the number
        #: of installs, proving compilation stays off the packet path).
        self.closures_compiled = 0
        #: Called with the new record after every table (re)install: the
        #: server attaches what depends on its ``SimParams``.
        self._install_listeners: List[Callable[[CompiledGraph], None]] = []

    def on_install(self, listener: Callable[[CompiledGraph], None]) -> None:
        """Register ``listener(record)``, fired after each (re)install."""
        self._install_listeners.append(listener)

    def install(self, tables: TableSet) -> None:
        """Install a deployed graph: its CT row and its compiled record."""
        self.classification.install(tables.ct_entry)
        compiled = self._compiled[tables.mid] = CompiledGraph(tables.graph)
        compiled.merge_plan = MergePlan(tables.graph.merge_ops)
        self.closures_compiled += 1
        for listener in self._install_listeners:
            listener(compiled)

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

    def classify(self, key: Optional[bytes]) -> Optional[CTEntry]:
        """Classifier lookup on a flow key (``Packet.flow_key()``): the
        exact row, then the first matching predicate, then the wildcard;
        ``None`` (a frame with no key) goes straight to the wildcard."""
        return self.classification.lookup(key)

    def mids(self) -> List[int]:
        return sorted(self._compiled)
