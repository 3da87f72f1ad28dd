"""Recovery building blocks shared by the execution planes.

Two pieces:

* :class:`HealthBoard` -- which instance indices of each replicated NF
  are still healthy.  The DES server keeps one and hands its view to
  :func:`repro.dataplane.flowsplit.assign_instances`, so RSS failover
  (flows rehashed away from a dead instance) is one shared mechanism;
  the placed functional plane keeps one per server.
* :func:`linearize` -- the sequential fallback of a parallel
  micrograph: its NFs in stage order on a single version, no copies, no
  merger.  When an NF kind has zero healthy instances the orchestrator
  (or the server, acting locally) degrades the graph to this
  linearization, trading the parallelism win for a dataplane with no
  rendezvous state to strand.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.graph import ServiceGraph

__all__ = ["HealthBoard", "linearize"]


class HealthBoard:
    """Healthy instance indices per NF name.

    Groups are registered with their full instance count; marking
    instances down/up maintains the ordered healthy list.  ``view()``
    only reports names with at least one casualty, so the common
    all-healthy case keeps the RSS fast path (and its exact historical
    hash -> instance mapping).
    """

    def __init__(self):
        self._counts: Dict[str, int] = {}
        self._healthy: Dict[str, List[int]] = {}

    def register(self, name: str, count: int) -> None:
        self._counts[name] = count
        self._healthy[name] = list(range(count))

    def registered(self, name: str) -> bool:
        return name in self._counts

    def mark_down(self, name: str, index: int) -> List[int]:
        """Remove ``index`` from the healthy set; returns what remains."""
        if name not in self._healthy:
            self.register(name, index + 1)
        healthy = self._healthy[name]
        if index in healthy:
            healthy.remove(index)
        return list(healthy)

    def mark_up(self, name: str, index: int) -> None:
        healthy = self._healthy.setdefault(name, [])
        if index not in healthy:
            healthy.append(index)
            healthy.sort()

    def resize(self, name: str, count: int) -> None:
        """Change the registered instance count live (autoscaling).

        Unlike :meth:`register` this preserves health state: indices
        that were marked down and still exist stay down; indices removed
        by a shrink drop out of the healthy list; indices added by a
        grow are born healthy.
        """
        if count < 1:
            raise ValueError("instance count must be >= 1")
        old = self._counts.get(name, 0)
        healthy = self._healthy.setdefault(name, list(range(old)))
        healthy[:] = [i for i in healthy if i < count]
        for i in range(old, count):
            healthy.append(i)
        healthy.sort()
        self._counts[name] = count

    def healthy(self, name: str) -> List[int]:
        if name in self._healthy:
            return list(self._healthy[name])
        return list(range(self._counts.get(name, 1)))

    def degraded(self, name: str) -> bool:
        """True when ``name`` has lost at least one instance."""
        count = self._counts.get(name)
        return count is not None and len(self._healthy[name]) < count

    def up(self, name: str) -> bool:
        """True while ``name`` keeps at least one healthy instance.

        The placement runtime registers whole *servers* here (count 1),
        so this doubles as "is the server alive" for path selection.
        """
        return bool(self.healthy(name))

    def view(self) -> Optional[Dict[str, List[int]]]:
        """Healthy map for ``assign_instances``; None when all-healthy."""
        partial = {
            name: list(indices)
            for name, indices in self._healthy.items()
            if len(indices) < self._counts[name]
        }
        return partial or None


def linearize(graph: ServiceGraph, name: str = "") -> ServiceGraph:
    """The sequential fallback chain of a (parallel) service graph.

    Stage-major order: every hard dependency the compiler encoded lives
    across stages, so flattening stages in order yields a valid
    sequential execution.  NFs that shared a stage ran on independent
    buffer versions (or were judged parallelizable); running them back
    to back on one buffer is the paper's traditional chaining -- the
    safe, merger-free mode degraded traffic falls back to.
    """
    return ServiceGraph.sequential(
        graph.nodes(), name=name or f"{graph.name}-degraded"
    )
