"""repro.placement — topology-aware NF placement with SLO constraints.

The subsystem answers "which servers should each chain's slices run
on?" for a cluster that is no longer the homogeneous line of boxes §7
assumed.  A :class:`~repro.placement.topology.Topology` models servers
(cores, memory) and links (bandwidth, propagation delay); a
:class:`~repro.placement.request.ChainRequest` carries a compiled
service graph plus its SLOs (end-to-end delay bound, offered-rate
window) and placement constraints (anti-affinity, partial order).

Two solvers share one candidate evaluator -- the calibrated latency
model (:func:`repro.multiserver.latency.link_cost_us`) and capacity
model (:func:`repro.eval.model.placed_capacity`) -- so their answers
are comparable by construction:

* :func:`brute_force_place` -- exhaustive search over (cut vector,
  server path) pairs, exact on small clusters (<= 4 servers);
* :func:`heuristic_place` -- greedy seeding in resource-pressure order
  plus local search; scales past the brute-force horizon and is tested
  to stay within a declared optimality band of it.

:func:`plan_backups` attaches a server-disjoint standby placement to
every placed chain (1+1 protection), and
``measure_placed(faults=)`` (:mod:`repro.eval.harness`) runs the pair
on the DES: crash an active server and the source fails over onto the
pre-planned backup, with the ledger balanced and the recovery time
measured on the model clock.
"""

from .backup import plan_backups
from .brute import BruteForceError, brute_force_place, chain_candidates
from .heuristic import heuristic_place, round_robin_place
from .plan import (
    MEMORY_PER_NF_MB,
    ChainPlacement,
    PlacementPlan,
    ResourceLedger,
    enumerate_cuts,
    evaluate_candidate,
)
from .request import ChainRequest, RequestError, Slo
from .runtime import build_timed
from .topology import Link, Server, Topology, TopologyError

__all__ = [
    "Topology", "Server", "Link", "TopologyError",
    "ChainRequest", "Slo", "RequestError",
    "PlacementPlan", "ChainPlacement", "ResourceLedger",
    "MEMORY_PER_NF_MB", "enumerate_cuts", "evaluate_candidate",
    "brute_force_place", "BruteForceError", "chain_candidates",
    "heuristic_place", "round_robin_place",
    "plan_backups",
    "build_timed",
]
