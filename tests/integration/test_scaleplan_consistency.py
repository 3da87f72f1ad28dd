"""ScalePlan sizing vs DES execution: the plan must be achievable.

`plan_scale_out` promises that its instance counts sustain
``achievable_mpps``.  Since this PR the plan is executable -- the
orchestrator scales the deployed graph and the DES server runs one
runtime per instance with RSS flow-split -- so the promise is testable:
drive the Fig. 13 chains at 85% of the planned rate with deterministic
arrivals and the scaled server must be lossless, while stripping
instances below the plan at the same rate must lose packets.

The 15% margin absorbs bounded RSS imbalance (crc32 over a finite flow
population is not a perfect splitter) on top of the plan's fluid-limit
arithmetic; rings (capacity 1024) absorb the transient backlog.
"""

import pytest

from repro.core import Orchestrator, Policy
from repro.core.scaling import plan_scale_out
from repro.dataplane import NFPServer
from repro.eval.experiments import NORTH_SOUTH_CHAIN, WEST_EAST_CHAIN
from repro.sim import DEFAULT_PARAMS, Environment
from repro.traffic import FlowGenerator, TrafficSource

PACKETS = 4000
LOAD = 0.85


def _run_scaled(chain, target_mpps, shrink=None):
    """Deploy `chain` sized for `target_mpps`; returns (plan, server)."""
    policy = Policy.from_chain(list(chain))
    orch = Orchestrator()
    graph = orch.compile(policy).graph
    plan = plan_scale_out(graph, DEFAULT_PARAMS, target_mpps)
    assert plan.feasible
    # The classifier is not replicable at runtime; these targets must
    # stay below its single-core capacity for the plan to be executable.
    assert plan.instances.get("classifier", 1) == 1

    counts = plan.nf_counts(graph)
    if shrink:
        # Collapse one scaled NF back to a single instance; the ring
        # (1024 slots) cannot absorb the resulting backlog.
        counts = dict(counts)
        counts[shrink] = 1
    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS, num_mergers=plan.merger_count)
    server.deploy(orch.deploy(policy), scale=counts)
    TrafficSource(env, server.inject, LOAD * plan.achievable_mpps, PACKETS,
                  flows=FlowGenerator(num_flows=64, seed=11),
                  poisson=False, seed=11)
    env.run()
    return plan, server


@pytest.mark.parametrize("chain,target_mpps", [
    (NORTH_SOUTH_CHAIN, 3.0),
    (WEST_EAST_CHAIN, 4.0),
])
def test_planned_instances_sustain_planned_rate(chain, target_mpps):
    plan, server = _run_scaled(chain, target_mpps)
    assert plan.achievable_mpps >= target_mpps
    assert any(count > 1 for count in plan.nf_counts(
        Orchestrator().compile(Policy.from_chain(list(chain))).graph
    ).values()), "targets must actually require scale-out"
    assert server.lost == 0, (
        f"plan {plan} dropped {server.lost} packets at "
        f"{LOAD:.0%} of its achievable rate")
    assert server.rate.delivered == PACKETS


@pytest.mark.parametrize("chain,target_mpps,heavy", [
    (NORTH_SOUTH_CHAIN, 3.0, "vpn"),
    (WEST_EAST_CHAIN, 4.0, "ids"),
])
def test_fewer_instances_than_planned_lose_packets(chain, target_mpps, heavy):
    plan, server = _run_scaled(chain, target_mpps, shrink=heavy)
    assert plan.instances[heavy] > 1, "shrink target must be scaled"
    assert server.lost > 0, (
        f"unscaling {heavy} from {plan} should overload it")
