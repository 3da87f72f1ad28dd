"""Exhaustive placement: the optimality baseline for small topologies.

Enumerates, for every chain, every (cut vector, server path) candidate,
then backtracks over the chains jointly so shared-capacity interactions
are searched exactly -- chain A may take a worse personal spot so chain
B fits at all.  Exponential by construction, which is fine at the scale
it is meant for (Mehraghdam et al. solve the same formulation as a
MIQCP at similar sizes); :func:`brute_force_place` refuses topologies
beyond :data:`MAX_BRUTE_SERVERS` (4) so nobody leans on it in anger.

The heuristic solver is gated against this baseline in
``tests/integration/test_placement_agreement.py``: feasible whenever
brute force is feasible, objective within a declared band.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..sim.params import DEFAULT_PARAMS, SimParams
from .plan import (
    ChainPlacement,
    PlacementPlan,
    ResourceLedger,
    enumerate_cuts,
    evaluate_candidate,
)
from .request import ChainRequest
from .topology import Topology

__all__ = ["brute_force_place", "chain_candidates", "BruteForceError"]


class BruteForceError(ValueError):
    """Raised when the exhaustive solver is pointed at a big topology."""


def chain_candidates(
    request: ChainRequest,
    topology: Topology,
    params: SimParams,
    ledger: ResourceLedger,
) -> List[ChainPlacement]:
    """Every feasible (cuts, path) placement for one chain, best first.

    Feasibility is judged against the ledger's *current* residuals;
    callers doing joint search re-check via ``ledger.fits`` at commit
    time.
    """
    max_slices = min(topology.num_servers, len(request.graph.stages))
    candidates: List[ChainPlacement] = []
    for cuts in enumerate_cuts(len(request.graph.stages), max_slices):
        for path in topology.paths(len(cuts) + 1):
            placement, _ = evaluate_candidate(
                request, cuts, path, topology, params, ledger
            )
            if placement is not None:
                candidates.append(placement)
    candidates.sort(key=lambda p: (p.delay_us, p.num_servers, p.path))
    return candidates


def _diagnose(
    request: ChainRequest,
    topology: Topology,
    params: SimParams,
    ledger: ResourceLedger,
) -> str:
    """The most informative rejection reason for an unplaceable chain."""
    ok, reason = request.constraints_satisfiable()
    if not ok:
        return reason
    max_slices = min(topology.num_servers, len(request.graph.stages))
    # Candidates enumerate fewest-cuts/shortest-path first, so the first
    # rejection belongs to the most natural placement -- report that one.
    for cuts in enumerate_cuts(len(request.graph.stages), max_slices):
        for path in topology.paths(len(cuts) + 1):
            _, why = evaluate_candidate(
                request, cuts, path, topology, params, ledger
            )
            if why:
                return why
    return "no candidate placements at all"


#: Largest topology the exhaustive search takes.
MAX_BRUTE_SERVERS = 4


def brute_force_place(
    topology: Topology,
    requests: Sequence[ChainRequest],
    params: SimParams = DEFAULT_PARAMS,
) -> PlacementPlan:
    """Jointly optimal placement of ``requests`` by exhaustive search.

    Minimises the total predicted delay over *placed* chains while
    maximising the number of chains placed (a chain is only reported
    infeasible when no joint assignment fits it).  Raises
    :class:`BruteForceError` past :data:`MAX_BRUTE_SERVERS` servers.
    """
    if topology.num_servers > MAX_BRUTE_SERVERS:
        raise BruteForceError(
            f"brute force is capped at {MAX_BRUTE_SERVERS} servers "
            f"(got {topology.num_servers}); use the heuristic solver"
        )

    base = ResourceLedger(topology)
    per_chain: Dict[str, List[ChainPlacement]] = {
        request.name: chain_candidates(request, topology, params, base)
        for request in requests
    }

    best: Dict[str, object] = {"count": -1, "objective": float("inf"),
                               "chosen": None, "ledger": None}

    def search(index: int, ledger: ResourceLedger,
               chosen: List[Optional[ChainPlacement]]) -> None:
        if index == len(requests):
            count = sum(1 for c in chosen if c is not None)
            objective = sum(c.delay_us for c in chosen if c is not None)
            if (count > best["count"]
                    or (count == best["count"]
                        and objective < best["objective"] - 1e-9)):
                best["count"] = count
                best["objective"] = objective
                best["chosen"] = list(chosen)
                best["ledger"] = ledger.copy()
            return
        request = requests[index]
        for candidate in per_chain[request.name]:
            fits, _ = ledger.fits(candidate)
            if not fits:
                continue
            ledger.commit(candidate)
            chosen.append(candidate)
            search(index + 1, ledger, chosen)
            chosen.pop()
            ledger.release(candidate)
        # Branch where this chain stays unplaced (maybe others fit).
        chosen.append(None)
        search(index + 1, ledger, chosen)
        chosen.pop()

    search(0, base, [])

    chosen: List[Optional[ChainPlacement]] = best["chosen"] or []
    ledger: ResourceLedger = best["ledger"] or ResourceLedger(topology)
    plan = PlacementPlan(topology=topology, ledger=ledger, solver="brute")
    for request, candidate in zip(requests, chosen):
        if candidate is not None:
            plan.placements.append(candidate)
        else:
            plan.infeasible[request.name] = _diagnose(
                request, topology, params, ledger
            )
    return plan
