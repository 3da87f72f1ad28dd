"""Disjoint backup placement: 1+1 protection for placed chains.

For every active :class:`~repro.placement.plan.ChainPlacement` the
planner reserves a standby placement whose server set is *disjoint*
from the active path (server-disjoint implies link-disjoint, so no
single server or link failure can take out both).  Backup capacity is
committed to the ledger like active capacity -- protection that only
exists until the first correlated burst is not protection -- so a plan
with backups honestly shows double the core bill.

``measure_placed(faults=)`` runs the backup beside the active
placement on the DES: a server crash (via :mod:`repro.faults`, server
names as labels) reroutes the source onto the pre-planned standby
without replanning, and the run reports the ledger and the recovery
time.
"""

from __future__ import annotations

from typing import Dict

from ..sim.params import DEFAULT_PARAMS, SimParams
from .plan import (
    ChainPlacement,
    PlacementPlan,
    ResourceLedger,
    enumerate_cuts,
    evaluate_candidate,
)
from .topology import Topology

__all__ = ["plan_backups"]


def _backup_for(
    placement: ChainPlacement,
    topology: Topology,
    params: SimParams,
    plan: PlacementPlan,
) -> tuple:
    """(backup placement or None, reason).  Ledger-committed on success."""
    request = placement.request
    avoid = set(placement.path)
    max_slices = min(topology.num_servers, len(request.graph.stages))
    best = None
    last_reason = "no server-disjoint path exists"
    for cuts in enumerate_cuts(len(request.graph.stages), max_slices):
        for path in topology.paths(len(cuts) + 1):
            if avoid.intersection(path):
                continue
            candidate, reason = evaluate_candidate(
                request, cuts, path, topology, params, plan.ledger
            )
            if candidate is None:
                last_reason = reason or last_reason
                continue
            if best is None or candidate.delay_us < best.delay_us - 1e-9:
                best = candidate
    if best is None:
        return None, last_reason
    plan.ledger.commit(best)
    return best, ""


def plan_backups(
    plan: PlacementPlan,
    params: SimParams = DEFAULT_PARAMS,
) -> Dict[str, str]:
    """Attach a disjoint backup to every placement in ``plan``.

    Mutates the plan in place (``placement.backup`` plus ledger
    reservations) and returns chain name -> reason for every chain that
    could *not* be protected.  Unprotected chains stay active-only; the
    caller decides whether that is acceptable.
    """
    if plan.ledger is None:
        plan.ledger = ResourceLedger(plan.topology)
    unprotected: Dict[str, str] = {}
    for placement in plan.placements:
        backup, reason = _backup_for(
            placement, plan.topology, params, plan
        )
        if backup is None:
            unprotected[placement.request.name] = reason
        else:
            placement.backup = backup
    return unprotected
