"""Unit tests for the §7 NF scaling analysis and its executable form."""

import pytest

from repro.core import Orchestrator, Policy
from repro.core.scaling import ScaledGraph, plan_scale_out, scale_graph
from repro.eval import forced_sequential, nfp_capacity
from repro.sim import DEFAULT_PARAMS


def graph_for(chain):
    return Orchestrator().compile(Policy.from_chain(chain)).graph


def test_single_instances_when_target_below_capacity():
    graph = graph_for(["firewall", "monitor"])
    capacity = nfp_capacity(graph, DEFAULT_PARAMS).mpps
    plan = plan_scale_out(graph, DEFAULT_PARAMS, target_mpps=capacity * 0.5)
    assert plan.feasible
    assert all(count == 1 for count in plan.instances.values())
    assert plan.achievable_mpps >= capacity * 0.5


def test_heavy_nf_gets_replicated():
    graph = forced_sequential(["ids"])
    plan = plan_scale_out(graph, DEFAULT_PARAMS, target_mpps=5.0)
    assert plan.feasible
    # IDS sustains ~1.37 Mpps per instance -> 4 instances for 5 Mpps.
    assert plan.instances["ids0"] == 4
    assert plan.achievable_mpps >= 5.0


def test_line_rate_is_a_hard_ceiling():
    graph = graph_for(["firewall", "monitor"])
    plan = plan_scale_out(graph, DEFAULT_PARAMS, target_mpps=50.0)
    assert not plan.feasible
    assert plan.limiting == "nic"
    assert plan.achievable_mpps == pytest.approx(
        DEFAULT_PARAMS.line_rate_mpps(64), rel=0.01
    )


def test_mergers_count_toward_scaling():
    graph = graph_for(["firewall", "monitor"])  # parallel -> merger present
    plan = plan_scale_out(graph, DEFAULT_PARAMS, target_mpps=12.0)
    assert plan.instances.get("merger", 0) >= 2  # one merger caps at ~10.7


def test_invalid_target_rejected():
    graph = graph_for(["firewall"])
    with pytest.raises(ValueError):
        plan_scale_out(graph, DEFAULT_PARAMS, target_mpps=0)


def test_plan_str_smoke():
    graph = graph_for(["firewall", "monitor"])
    plan = plan_scale_out(graph, DEFAULT_PARAMS, target_mpps=2.0)
    assert "Mpps" in str(plan)


# ------------------------------------------------- executable scale plans
def test_scaled_graph_labels_and_fresh_ids():
    graph = graph_for(["ids", "monitor"])
    scaled = ScaledGraph(graph, {"ids": 3})
    assert scaled.labels("ids") == ["ids#0", "ids#1", "ids#2"]
    assert scaled.labels("monitor") == ["monitor"]
    # "new NF instances with new IDs": dense, unique, in graph order.
    ids = list(scaled.instance_ids.values())
    assert sorted(ids) == list(range(1, 5))
    assert len(set(ids)) == len(ids)
    assert "idsx3" in scaled.describe()


def test_scaled_graph_rejects_bad_counts():
    graph = graph_for(["ids", "monitor"])
    with pytest.raises(ValueError):
        ScaledGraph(graph, {"ids": 0})
    with pytest.raises(ValueError):
        ScaledGraph(graph, {"nosuch": 2})
    with pytest.raises(ValueError):
        scale_graph(graph, 0)


def test_scale_graph_accepts_int_mapping_and_plan():
    graph = forced_sequential(["ids"])
    assert scale_graph(graph, 2).counts == {"ids0": 2}
    assert scale_graph(graph, {"ids0": 3}).counts == {"ids0": 3}
    plan = plan_scale_out(graph, DEFAULT_PARAMS, target_mpps=5.0)
    scaled = scale_graph(graph, plan)
    # The plan's classifier/merger sizing is filtered out of NF counts.
    assert scaled.counts == {"ids0": 4}
    assert plan.nf_counts(graph) == {"ids0": 4}
    assert plan.merger_count == 1


def test_orchestrator_deploy_carries_scale():
    orch = Orchestrator()
    deployed = orch.deploy(Policy.from_chain(["ids", "monitor"]),
                           scale={"ids": 2})
    assert deployed.scale == {"ids": 2, "monitor": 1}
    assert deployed.scaled is not None
    assert "scaled" in repr(deployed)
    unscaled = orch.deploy(Policy.from_chain(["firewall"]))
    assert unscaled.scale == {}


def test_capacity_scale_divides_nf_demand():
    graph = forced_sequential(["ids"])
    base = nfp_capacity(graph, DEFAULT_PARAMS)
    scaled = nfp_capacity(graph, DEFAULT_PARAMS, scale={"ids0": 4})
    assert scaled.demands["ids0"] == pytest.approx(base.demands["ids0"] / 4)
    assert scaled.mpps == pytest.approx(base.mpps * 4, rel=0.05)
