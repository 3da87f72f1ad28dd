"""Unit tests: requests, the ledger, and the three placement solvers."""

import pytest

from repro.core import Orchestrator, Policy
from repro.placement import (
    BruteForceError,
    ChainRequest,
    MEMORY_PER_NF_MB,
    RequestError,
    ResourceLedger,
    Slo,
    Topology,
    brute_force_place,
    enumerate_cuts,
    evaluate_candidate,
    heuristic_place,
    plan_backups,
    round_robin_place,
)
from repro.sim.params import DEFAULT_PARAMS


def compiled(*kinds):
    return Orchestrator().compile(Policy.from_chain(list(kinds))).graph


def request(name="chain", kinds=("vpn", "monitor", "firewall", "loadbalancer"),
            delay=200.0, mpps=0.5, **kwargs):
    return ChainRequest(name, compiled(*kinds), Slo(max_delay_us=delay,
                                                    max_mpps=mpps), **kwargs)


# ----------------------------------------------------------------- request
class TestRequest:
    def test_slo_validation(self):
        with pytest.raises(RequestError):
            Slo(max_delay_us=0)
        with pytest.raises(RequestError):
            Slo(max_delay_us=10, min_mpps=2.0, max_mpps=1.0)
        with pytest.raises(RequestError):
            Slo(max_delay_us=10, max_mpps=0)

    def test_unknown_constraint_nf_rejected(self):
        with pytest.raises(RequestError):
            request(anti_affinity=[("vpn", "nosuch")])

    def test_cut_algebra(self):
        req = request(partial_order=[("vpn", "loadbalancer")])
        # vpn is stage 0, loadbalancer the last stage; any cut in between
        # separates them, no cuts does not.
        assert not req.cuts_ok([])
        assert req.cuts_ok([1])
        ok, _ = req.constraints_satisfiable()
        assert ok

    def test_same_stage_anti_affinity_unsatisfiable(self):
        # firewall and monitor compile into the same parallel stage.
        req = request(anti_affinity=[("firewall", "monitor")])
        ok, why = req.constraints_satisfiable()
        assert not ok
        assert "same stage" in why

    def test_backwards_partial_order_unsatisfiable(self):
        req = request(partial_order=[("loadbalancer", "vpn")])
        ok, why = req.constraints_satisfiable()
        assert not ok


# ------------------------------------------------------------------ ledger
class TestLedger:
    def test_commit_release_roundtrip(self):
        topo = Topology.line(2, 8)
        ledger = ResourceLedger(topo)
        req = request(kinds=("ids", "monitor"))
        placement, reason = evaluate_candidate(
            req, [], ("s0",), topo, DEFAULT_PARAMS, ledger)
        assert placement is not None, reason
        before = dict(ledger.cores_used)
        ledger.commit(placement)
        assert ledger.cores_used["s0"] == placement.slices[0].total_cores
        assert ledger.memory_used["s0"] == pytest.approx(
            placement.slices[0].nf_cores * MEMORY_PER_NF_MB)
        ledger.release(placement)
        assert ledger.cores_used == before

    def test_link_bandwidth_enforced(self):
        # A 0.1 Gbps link cannot carry 0.5 Mpps of 64 B frames.
        topo = Topology.line(2, 8, gbps=0.1)
        ledger = ResourceLedger(topo)
        req = request(mpps=0.5)
        placement, reason = evaluate_candidate(
            req, [1], ("s0", "s1"), topo, DEFAULT_PARAMS, ledger)
        assert placement is None
        assert "link" in reason


# ---------------------------------------------------------------- solvers
class TestSolvers:
    def test_enumerate_cuts_fewest_first(self):
        cuts = enumerate_cuts(3, 3)
        assert cuts[0] == ()
        lengths = [len(c) for c in cuts]
        assert lengths == sorted(lengths)
        assert set(cuts) == {(), (1,), (2,), (1, 2)}

    def test_single_chain_single_server(self):
        topo = Topology.full_mesh(2, 8)
        plan = heuristic_place(topo, [request()], DEFAULT_PARAMS)
        assert plan.feasible
        assert plan.placements[0].num_servers == 1

    def test_capacity_forces_split(self):
        # 5-core servers leave 3 NF cores: the 4-NF chain must split.
        topo = Topology.line(2, 5)
        plan = heuristic_place(topo, [request()], DEFAULT_PARAMS)
        assert plan.feasible
        assert plan.placements[0].num_servers == 2

    def test_anti_affinity_forces_split(self):
        topo = Topology.full_mesh(2, 16)
        req = request(anti_affinity=[("vpn", "loadbalancer")])
        plan = brute_force_place(topo, [req], DEFAULT_PARAMS)
        assert plan.feasible
        placement = plan.placements[0]
        assert placement.num_servers >= 2
        vpn_server = placement.path[0]
        lb_server = placement.path[-1]
        assert vpn_server != lb_server

    def test_infeasible_reported_never_violated(self):
        topo = Topology.full_mesh(2, 16)
        req = request(delay=1.0)  # impossible delay bound
        for solver in (heuristic_place, brute_force_place):
            plan = solver(topo, [req], DEFAULT_PARAMS)
            assert not plan.feasible
            assert req.name in plan.infeasible
            assert "delay" in plan.infeasible[req.name]
            assert not plan.placements
        # Every placement either meets its SLO or lands in infeasible.

    def test_brute_force_refuses_big_topologies(self):
        with pytest.raises(BruteForceError):
            brute_force_place(Topology.full_mesh(5, 8), [request()],
                              DEFAULT_PARAMS)

    def test_brute_joint_search_shares_capacity(self):
        # Two chains, one server big enough for either alone but not
        # both: brute force must place both by using both servers.
        topo = Topology.full_mesh(2, 8)
        reqs = [request("a", kinds=("ids", "monitor")),
                request("b", kinds=("firewall", "nat"))]
        plan = brute_force_place(topo, reqs, DEFAULT_PARAMS)
        assert plan.feasible
        assert len(plan.placements) == 2

    def test_round_robin_ignores_slos(self):
        topo = Topology.full_mesh(2, 16)
        req = request(delay=1.0)  # violated, but round-robin still places
        plan = round_robin_place(topo, [req])
        assert len(plan.placements) == 1
        assert plan.placements[0].delay_us > 1.0  # true cost reported

    def test_heuristic_respects_request_order_in_output(self):
        topo = Topology.full_mesh(3, 16)
        reqs = [request("small", kinds=("ids",)),
                request("big", kinds=("vpn", "monitor", "firewall",
                                      "loadbalancer"))]
        plan = heuristic_place(topo, reqs, DEFAULT_PARAMS)
        assert [p.request.name for p in plan.placements] == ["small", "big"]


# ----------------------------------------------------------------- backups
class TestBackups:
    def test_backup_is_server_disjoint_and_reserved(self):
        topo = Topology.full_mesh(4, 8)
        plan = heuristic_place(topo, [request()], DEFAULT_PARAMS)
        unprotected = plan_backups(plan, DEFAULT_PARAMS)
        assert unprotected == {}
        placement = plan.placements[0]
        assert placement.backup is not None
        assert not set(placement.path).intersection(placement.backup.path)
        # 1+1 protection: the ledger charges both placements.
        total = sum(plan.ledger.cores_used.values())
        expected = (sum(s.total_cores for s in placement.slices)
                    + sum(s.total_cores for s in placement.backup.slices))
        assert total == expected

    def test_unprotectable_chain_reported(self):
        # Two servers: the active placement uses one, the backup needs a
        # disjoint one -- fine. With anti-affinity forcing both servers
        # active, no disjoint standby can exist.
        topo = Topology.full_mesh(2, 16)
        req = request(anti_affinity=[("vpn", "loadbalancer")])
        plan = brute_force_place(topo, [req], DEFAULT_PARAMS)
        assert plan.feasible
        unprotected = plan_backups(plan, DEFAULT_PARAMS)
        assert req.name in unprotected
        assert plan.placements[0].backup is None
