"""The NFP orchestrator facade (§4): policies in, installed tables out.

Ties the pieces together the way Fig. 3's control plane does:

1. operators submit policies (objects or DSL text);
2. the compiler turns each policy into a service graph;
3. a fresh MID is allocated (20 bits -> up to 1M graphs) and the
   CT/FT/MO tables are built;
4. the tables are handed to whatever infrastructure is attached (the
   simulated NFP server's chaining manager, §5).

It also owns the NF action table and exposes the §5.4 registration flow
for new NFs (manual profile or inspector-derived).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from .action_table import ActionTable, default_action_table
from .actions import ActionProfile
from .compiler import CompilationResult, NFPCompiler
from .dependency import DEFAULT_DEPENDENCY_TABLE, DependencyTable
from .inspector import inspect_nf
from .policy import Policy
from .policy_dsl import parse_policy
from .scaling import ScaledGraph, ScalePlan, scale_graph
from .tables import TableSet, build_tables

__all__ = ["Orchestrator", "DeployedGraph"]

_MAX_MID = (1 << 20) - 1


class DeployedGraph:
    """A compiled graph bound to a MID with its generated tables.

    ``scaled`` (optional) is the §7 scale-out artifact: the same graph
    with per-NF instance counts and fresh instance IDs; dataplanes that
    deploy this object spin up one runtime per instance and RSS-split
    flows across them.
    """

    def __init__(
        self,
        mid: int,
        result: CompilationResult,
        tables: TableSet,
        scaled: Optional[ScaledGraph] = None,
        plan: Optional[ScalePlan] = None,
    ):
        self.mid = mid
        self.result = result
        self.tables = tables
        self.scaled = scaled
        #: The sizing plan this deployment executes, when it came from one.
        self.plan = plan

    @property
    def graph(self):
        return self.result.graph

    @property
    def scale(self) -> Dict[str, int]:
        """NF name -> instance count (empty when unscaled)."""
        if self.scaled is None:
            return {}
        return dict(self.scaled.counts)

    def __repr__(self) -> str:
        desc = self.scaled.describe() if self.scaled else self.graph.describe()
        return f"DeployedGraph(mid={self.mid}, {desc!r})"


class Orchestrator:
    """Compiles policies and manages deployed service graphs."""

    def __init__(
        self,
        action_table: Optional[ActionTable] = None,
        dependency_table: DependencyTable = DEFAULT_DEPENDENCY_TABLE,
    ):
        self.action_table = action_table or default_action_table()
        self.compiler = NFPCompiler(self.action_table, dependency_table)
        self._deployed: Dict[int, DeployedGraph] = {}
        self._next_mid = 1

    # -------------------------------------------------------- NF lifecycle
    def register_profile(self, profile: ActionProfile, replace: bool = False) -> None:
        """Register a manually written action profile (§4.3)."""
        self.action_table.register(profile, replace=replace)

    def register_nf(
        self, nf: Union[type, object], name: Optional[str] = None, replace: bool = False
    ) -> ActionProfile:
        """Register an NF by inspecting its code (§5.4)."""
        profile = inspect_nf(nf, name=name)
        self.action_table.register(profile, replace=replace)
        return profile

    # ----------------------------------------------------------- compiling
    def compile(self, policy: Union[Policy, str]) -> CompilationResult:
        """Compile a policy (object or DSL text) without deploying it."""
        if isinstance(policy, str):
            policy = parse_policy(policy)
        return self.compiler.compile(policy)

    def deploy(
        self,
        policy: Union[Policy, str],
        match: object = "*",
        scale: Union[int, ScalePlan, Dict[str, int], None] = None,
    ) -> DeployedGraph:
        """Compile a policy, allocate a MID, and build its tables.

        ``scale`` turns the deployment into a §7 scale-out: a uniform
        instance count, an explicit name -> count mapping, or a
        :class:`~repro.core.scaling.ScalePlan` straight from
        :func:`~repro.core.scaling.plan_scale_out`.
        """
        result = self.compile(policy)
        mid = self._allocate_mid()
        tables = build_tables(result.graph, mid, match=match)
        scaled = None
        plan = None
        if scale is not None:
            scaled = scale_graph(result.graph, scale)
            if isinstance(scale, ScalePlan):
                plan = scale
        deployed = DeployedGraph(mid, result, tables, scaled=scaled, plan=plan)
        self._deployed[mid] = deployed
        return deployed

    # ----------------------------------------------------------- placement
    def request(self, name: str, policy: Union[Policy, str], slo, **kwargs):
        """Compile ``policy`` into a placement :class:`ChainRequest`.

        ``kwargs`` pass through (``anti_affinity``, ``partial_order``,
        ``packet_size``); ``slo`` is a :class:`repro.placement.Slo`.
        """
        from ..placement import ChainRequest

        graph = self.compile(policy).graph
        return ChainRequest(name, graph, slo, **kwargs)

    def place(
        self,
        topology,
        chains,
        params=None,
        solver: str = "heuristic",
        backups: bool = True,
    ):
        """Place compiled chains onto a topology under their SLOs.

        ``chains`` is a list of :class:`repro.placement.ChainRequest`
        (build them with :meth:`request`).  ``solver`` is ``heuristic``
        (default, scales) or ``brute`` (exact, <= 4 servers).  With
        ``backups`` each placed chain also reserves a server-disjoint
        standby, so a PR-5 server crash fails over without replanning.
        Returns the :class:`repro.placement.PlacementPlan`; unplaceable
        chains land in ``plan.infeasible`` with the binding reason.
        """
        from ..placement import brute_force_place, heuristic_place, plan_backups
        from ..sim.params import DEFAULT_PARAMS

        if params is None:
            params = DEFAULT_PARAMS
        if solver == "brute":
            plan = brute_force_place(topology, chains, params)
        elif solver == "heuristic":
            plan = heuristic_place(topology, chains, params)
        else:
            raise ValueError(f"unknown solver {solver!r} (heuristic|brute)")
        if backups:
            unprotected = plan_backups(plan, params)
            plan.unprotected = unprotected
        return plan

    def rescale(self, mid: int, name: str, count: int) -> DeployedGraph:
        """Record a live instance-count change for deployment ``mid``.

        The autoscaler calls this after the dataplane executes a
        scale-up/scale-down so the orchestrator's record (the
        :class:`ScaledGraph` with its fresh instance IDs) tracks the
        actual membership.  Tables are untouched: the CT match and MID
        survive a §7 rescale, only the RSS instance set changes.
        """
        deployed = self.get(mid)
        if deployed.scaled is None:
            deployed.scaled = scale_graph(deployed.graph, {})
        deployed.scaled = deployed.scaled.rescaled(name, count)
        return deployed

    def degrade(self, mid: int) -> DeployedGraph:
        """Deploy the sequential linearization of graph ``mid``.

        Graceful-degradation control path: when a dataplane loses every
        instance of an NF in a parallel graph, the orchestrator falls
        back to the graph's sequential chain -- same NFs, same CT match,
        fresh MID -- trading the latency win for single-copy execution
        that tolerates one-instance-at-a-time processing.  The original
        deployment stays installed for in-flight packets.
        """
        from ..faults.recovery import linearize

        original = self.get(mid)
        seq = linearize(original.graph)
        new_mid = self._allocate_mid()
        tables = build_tables(seq, new_mid, match=original.tables.ct_entry.match)
        result = CompilationResult(seq, {}, [
            f"degraded from MID {mid}: sequential fallback of "
            f"{original.graph.describe()!r}"
        ])
        deployed = DeployedGraph(new_mid, result, tables)
        self._deployed[new_mid] = deployed
        return deployed

    def undeploy(self, mid: int) -> None:
        if mid not in self._deployed:
            raise KeyError(f"no deployed graph with MID {mid}")
        del self._deployed[mid]

    def deployed(self) -> List[DeployedGraph]:
        return list(self._deployed.values())

    def get(self, mid: int) -> DeployedGraph:
        return self._deployed[mid]

    def _allocate_mid(self) -> int:
        while self._next_mid in self._deployed:
            self._next_mid += 1
        if self._next_mid > _MAX_MID:
            raise RuntimeError("MID space exhausted (20 bits)")
        mid = self._next_mid
        self._next_mid += 1
        return mid
