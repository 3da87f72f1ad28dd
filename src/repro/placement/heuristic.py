"""Scalable placement: greedy construction plus local search.

The heuristic avoids the brute-force joint enumeration (exponential in
chains x paths) with the classic two-phase shape the VNF placement
literature converges on (Lemur's greedy/min-bounce pass, the MSG
heuristic of parallel-SFC placement):

1. **Greedy construction** -- chains ordered by descending resource
   pressure (NF cores x max rate) each take their best-scoring feasible
   candidate under the current ledger.  Candidates are generated
   cheapest-first (fewest cuts, i.e. fewest link crossings) and the
   scan stops early once a feasible candidate is found for the minimal
   cut count and a handful beyond it -- links cost real microseconds,
   so fragmenting further only ever helps when capacity forces it.
2. **Local search** -- repeatedly try to improve one chain at a time:
   release its placement, re-run its candidate scan against the
   relaxed ledger, and keep the best result (which may be the original).
   Stops at a fixed point or after three rounds.

Also provides :func:`round_robin_place`, the naive baseline the bench
scenario compares both real solvers against: greedy stage slicing
(ignoring scores) dealt onto servers in index order.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.partition import first_fit_cuts, partition_at
from ..sim.params import DEFAULT_PARAMS, SimParams
from .plan import (
    ChainPlacement,
    PlacementPlan,
    ResourceLedger,
    enumerate_cuts,
    evaluate_candidate,
)
from .request import ChainRequest
from .topology import Topology, TopologyError

__all__ = ["heuristic_place", "round_robin_place"]

#: After the first feasible cut count, explore this many extra cut
#: counts before giving up on finding something better.
_EXTRA_CUT_LEVELS = 1

#: Local-search passes after the greedy one.
_LOCAL_SEARCH_ROUNDS = 3


def _best_candidate(
    request: ChainRequest,
    topology: Topology,
    params: SimParams,
    ledger: ResourceLedger,
) -> Tuple[Optional[ChainPlacement], str]:
    """The best-scoring feasible candidate under the current ledger."""
    max_slices = min(topology.num_servers, len(request.graph.stages))
    best: Optional[ChainPlacement] = None
    # Candidates come fewest-cuts/shortest-path first, so the first
    # rejection explains the most natural placement -- keep that one.
    first_reason = ""
    feasible_level: Optional[int] = None
    for cuts in enumerate_cuts(len(request.graph.stages), max_slices):
        level = len(cuts)
        if feasible_level is not None and level > feasible_level + _EXTRA_CUT_LEVELS:
            break
        for path in topology.paths(level + 1):
            placement, reason = evaluate_candidate(
                request, cuts, path, topology, params, ledger
            )
            if placement is None:
                first_reason = first_reason or reason
                continue
            if feasible_level is None:
                feasible_level = level
            if best is None or placement.delay_us < best.delay_us - 1e-9:
                best = placement
    if best is None:
        ok, why = request.constraints_satisfiable()
        if not ok:
            return None, why
        return None, first_reason or "no candidate placements at all"
    return best, ""


def _pressure(request: ChainRequest) -> float:
    return request.nf_cores * max(request.slo.max_mpps, 1e-6)


def heuristic_place(
    topology: Topology,
    requests: Sequence[ChainRequest],
    params: SimParams = DEFAULT_PARAMS,
) -> PlacementPlan:
    """Greedy + local-search placement that scales past brute force."""
    ledger = ResourceLedger(topology)
    plan = PlacementPlan(topology=topology, ledger=ledger, solver="heuristic")
    order = sorted(requests, key=_pressure, reverse=True)

    placed: List[ChainPlacement] = []
    for request in order:
        candidate, reason = _best_candidate(request, topology, params, ledger)
        if candidate is None:
            plan.infeasible[request.name] = reason
            continue
        ledger.commit(candidate)
        placed.append(candidate)

    # Local search: re-seat one chain at a time against the relaxed
    # ledger; also retry chains the greedy pass could not fit.
    for _ in range(_LOCAL_SEARCH_ROUNDS):
        improved = False
        for index, current in enumerate(placed):
            ledger.release(current)
            candidate, _ = _best_candidate(
                current.request, topology, params, ledger
            )
            if candidate is not None and candidate.delay_us < current.delay_us - 1e-9:
                placed[index] = candidate
                ledger.commit(candidate)
                improved = True
            else:
                ledger.commit(current)
        for request in [r for r in order if r.name in plan.infeasible]:
            candidate, reason = _best_candidate(
                request, topology, params, ledger
            )
            if candidate is not None:
                ledger.commit(candidate)
                placed.append(candidate)
                del plan.infeasible[request.name]
                improved = True
            else:
                plan.infeasible[request.name] = reason
        if not improved:
            break

    by_name = {request.name: index for index, request in enumerate(requests)}
    placed.sort(key=lambda p: by_name[p.request.name])
    plan.placements = placed
    return plan


def round_robin_place(
    topology: Topology, requests: Sequence[ChainRequest]
) -> PlacementPlan:
    """The naive baseline: greedy slicing, servers dealt in index order.

    Slices each chain with :func:`repro.core.partition.first_fit_cuts`,
    :func:`~repro.core.partition.partition_graph`'s first-fit, against
    the *smallest* server's budget (a stage too big for it still gets a
    server of its own) and deals slices onto servers round robin, chain
    after chain, ignoring scores, SLOs and constraints --
    exactly what an orchestrator without a placement layer would do.
    Placements that happen to violate capacity or the SLO are still
    reported (with their true predicted delay), so the bench comparison
    shows what the naive plan actually costs; candidates that are not
    even wirable (non-adjacent servers) land in ``infeasible``.
    """
    params = DEFAULT_PARAMS
    names = sorted(topology.servers)
    ledger = ResourceLedger(topology)
    plan = PlacementPlan(topology=topology, ledger=ledger,
                         solver="round-robin")
    budget = min(s.cores for s in topology.servers.values()) - 2
    if budget < 1:
        for request in requests:
            plan.infeasible[request.name] = "no server has spare NF cores"
        return plan

    cursor = 0
    for request in requests:
        cuts = first_fit_cuts(request.graph, budget)
        path = tuple(
            names[(cursor + offset) % len(names)]
            for offset in range(len(cuts) + 1)
        )
        cursor += len(cuts) + 1
        try:
            links = topology.path_links(path)
        except TopologyError:
            plan.infeasible[request.name] = (
                f"round-robin walk {' -> '.join(path)} is not a path in "
                f"the topology"
            )
            continue
        from ..eval.model import placed_capacity
        from ..multiserver.latency import estimate_placed_latency

        slices = partition_at(request.graph, cuts)
        if len(set(path)) != len(path):
            plan.infeasible[request.name] = "round-robin walk revisits a server"
            continue
        report = placed_capacity(request.graph, slices, params,
                                 packet_size=request.packet_size)
        delay_us = estimate_placed_latency(
            request.graph, slices, links, params,
            packet_size=request.packet_size,
        )
        placement = ChainPlacement(
            request=request, cuts=tuple(cuts), path=path, slices=slices,
            links=links, delay_us=delay_us,
            capacity_mpps=report.mpps, bottleneck=report.bottleneck,
        )
        ledger.commit(placement)
        plan.placements.append(placement)
    return plan
