"""Unit tests for the fault model: specs, plans, injector, health.

The fault layer (``repro.faults``) is shared by both execution planes;
these tests pin down its contract in isolation -- parsing, trigger
evaluation, fire-once semantics, health bookkeeping and the healthy-
aware RSS assignment used for failover.
"""

import zlib

import pytest

from repro.core import Orchestrator, Policy
from repro.dataplane.flowsplit import assign_instances
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    HealthBoard,
    HealthState,
    base_name,
    linearize,
)
from repro.net.packet import encode_flow_key
from repro.telemetry import TelemetryHub


# ----------------------------------------------------------- base_name
def test_base_name_strips_replica_and_restart_suffixes():
    assert base_name("fw") == "fw"
    assert base_name("fw#1") == "fw"
    assert base_name("fw~r2") == "fw"
    assert base_name("fw#1~r2") == "fw"


# ------------------------------------------------------------- FaultSpec
def test_spec_parse_bare_kind():
    spec = FaultSpec.parse("crash")
    assert spec.kind is FaultKind.CRASH
    assert spec.target is None
    assert spec.at_packet is None and spec.at_time_us is None


def test_spec_parse_full_form():
    spec = FaultSpec.parse("slow:nat:t=200:x=8")
    assert spec.kind is FaultKind.SLOW
    assert spec.target == "nat"
    assert spec.at_time_us == 200.0
    assert spec.slow_factor == 8.0


def test_spec_parse_ring_aliases_and_cap():
    for alias in ("ring", "ring-pressure", "ring_pressure"):
        spec = FaultSpec.parse(f"{alias}:monitor:cap=4")
        assert spec.kind is FaultKind.RING_PRESSURE
        assert spec.ring_capacity == 4


def test_spec_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        FaultSpec.parse("meltdown")
    with pytest.raises(ValueError):
        FaultSpec.parse("crash:fw:pkt=0")
    with pytest.raises(ValueError):
        FaultSpec.parse("slow:fw:x=0")
    with pytest.raises(ValueError):
        FaultSpec.parse("crash:fw:frob=1")


def test_spec_describe_round_trips():
    text = "crash:fw:pkt=5"
    assert FaultSpec.parse(text).describe() == text


def test_spec_matches_exact_label_or_base_name():
    spec = FaultSpec.parse("hang:fw")
    assert spec.matches("fw")
    assert spec.matches("fw#1")
    assert spec.matches("fw#0~r3")
    assert not spec.matches("monitor#1")
    exact = FaultSpec.parse("hang:fw#1")
    assert exact.matches("fw#1")
    assert not exact.matches("fw#0")
    anyone = FaultSpec.parse("hang")
    assert anyone.matches("whatever")


def test_spec_triggers_are_at_or_after():
    by_packet = FaultSpec.parse("crash:fw:pkt=3")
    assert not by_packet.triggered(2, 0.0)
    assert by_packet.triggered(3, 0.0)
    assert by_packet.triggered(4, 0.0)
    by_time = FaultSpec.parse("crash:fw:t=100")
    assert not by_time.triggered(50, 99.9)
    assert by_time.triggered(1, 100.0)
    default = FaultSpec.parse("crash")
    assert default.triggered(1, 0.0)


# ------------------------------------------------------------- FaultPlan
def test_plan_parse_string_and_list():
    plan = FaultPlan.parse("crash,hang:fw")
    assert len(plan) == 2
    assert [s.kind for s in plan] == [FaultKind.CRASH, FaultKind.HANG]
    as_list = FaultPlan.parse(["crash", "hang:fw"])
    assert as_list.describe() == plan.describe() == "crash,hang:fw"
    assert not FaultPlan.parse("")
    assert bool(plan)


# ---------------------------------------------------------- FaultInjector
def test_injector_fires_once_and_tracks_health():
    hub = TelemetryHub()
    injector = FaultInjector(FaultPlan.parse("crash:fw:pkt=2"), telemetry=hub)
    events = []
    injector.on_transition(lambda label, spec, state: events.append((label, state)))

    assert injector.on_packet("fw#0", 0.0) is HealthState.HEALTHY
    assert injector.on_packet("fw#0", 1.0) is HealthState.DEAD
    # Fired exactly once; further packets on other replicas don't re-fire.
    assert injector.on_packet("fw#1", 2.0) is HealthState.HEALTHY
    assert injector.injected == 1
    assert hub.registry.counter_value("faults.injected") == 1
    assert hub.registry.counter_value("faults.injected.crash") == 1
    assert events == [("fw#0", HealthState.DEAD)]
    assert injector.is_down("fw#0")
    assert not injector.is_down("fw#1")
    assert injector.packet_count("fw#0") == 2


def test_injector_slow_factor():
    injector = FaultInjector(FaultPlan.parse("slow:fw:x=6"))
    assert injector.slow_factor("fw") == 1.0
    injector.on_packet("fw", 0.0)
    assert injector.state("fw") is HealthState.SLOW
    assert injector.slow_factor("fw") == 6.0
    assert injector.slow_factor("ids") == 1.0


def test_injector_hang_is_down_but_slow_is_not():
    injector = FaultInjector(FaultPlan.parse("hang,slow"))
    assert HealthState.HUNG.down and HealthState.DEAD.down
    assert not HealthState.SLOW.down and not HealthState.HEALTHY.down


# ------------------------------------------------------------ HealthBoard
def test_health_board_view_reports_only_degraded_groups():
    board = HealthBoard()
    board.register("fw", 3)
    board.register("nat", 2)
    assert board.view() is None  # all healthy -> RSS fast path
    assert board.mark_down("fw", 1) == [0, 2]
    assert board.view() == {"fw": [0, 2]}
    assert board.degraded("fw") and not board.degraded("nat")
    board.mark_up("fw", 1)
    assert board.view() is None
    assert board.healthy("fw") == [0, 1, 2]


def test_health_board_mark_down_auto_registers():
    board = HealthBoard()
    assert board.mark_down("fw", 1) == [0]
    assert board.registered("fw")


# ------------------------------------- healthy-aware RSS flow assignment
def _tuple_key(i):
    return encode_flow_key(("10.0.0.1", f"10.0.1.{i}", 6, 1000 + i, 80))


def test_assign_instances_healthy_none_matches_historical_hash():
    counts = {"fw": 4}  # pre-filtered: replicated NFs only (the precondition)
    for i in range(32):
        key = _tuple_key(i)
        assignment = assign_instances(key, counts, healthy=None)
        assert assignment == {"fw": zlib.crc32(key) % 4}
        assert assignment.get("nat", 0) == 0  # unreplicated NFs read 0


def test_assign_instances_degraded_group_rehashes_over_live():
    counts = {"fw": 4}
    live = [0, 2, 3]  # instance 1 died
    for i in range(64):
        key = _tuple_key(i)
        assignment = assign_instances(key, counts, healthy={"fw": live})
        assert assignment["fw"] == live[zlib.crc32(key) % len(live)]
        assert assignment["fw"] != 1


def test_assign_instances_casualty_does_not_reshuffle_other_groups():
    counts = {"fw": 4, "nat": 4}
    for i in range(32):
        key = _tuple_key(i)
        before = assign_instances(key, counts)
        after = assign_instances(key, counts, healthy={"fw": [0, 2, 3]})
        assert after["nat"] == before["nat"]


def test_assign_instances_keyless_flow_pins_to_first_live():
    assignment = assign_instances(None, {"fw": 4}, healthy={"fw": [2, 3]})
    assert assignment["fw"] == 2


# --------------------------------------------------------------- linearize
def test_linearize_flattens_parallel_graph_to_sequential():
    graph = Orchestrator().compile(
        Policy.from_chain(["vpn", "monitor", "firewall", "loadbalancer"])
    ).graph
    assert graph.has_parallelism
    seq = linearize(graph)
    assert not seq.has_parallelism
    assert seq.num_versions == 1
    assert not seq.merge_ops
    assert sorted(seq.nf_names()) == sorted(graph.nf_names())
    assert seq.name.endswith("-degraded")
