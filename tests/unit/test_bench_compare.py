"""Comparator tests: exact equality, one-sided values and rows."""

import math

import pytest

from repro.bench import ABSENT, BenchReport, ScenarioResult, compare_reports


def _scenario(name="chain", **metric_overrides) -> ScenarioResult:
    metrics = dict(
        latency_mean_us=40.0, latency_p50_us=38.0, latency_p99_us=55.0,
        throughput_mpps=5.26, resource_overhead=0.0, lost=0,
        delivered=800, events_per_pkt=9.22,
    )
    metrics.update(metric_overrides)
    return ScenarioResult(
        name=name, system="NFP", label=name, metrics=metrics,
        params={"packets": 800, "seed": 1},
        stage_us={"classify": 1.0, "ft": 3.0},
        stage_events={"classify": 1, "ft": 2},
    )


def _report(*scenarios) -> BenchReport:
    return BenchReport(list(scenarios))


def test_identical_reports_compare_every_value():
    comparison = compare_reports(_report(_scenario()), _report(_scenario()))
    assert comparison.ok and comparison.exit_code == 0
    # 8 metrics, 2 params, 2 + 2 stage entries, system and label.
    assert comparison.compared == 16
    assert "0 difference(s); 16 value(s) compared with ==" in \
        comparison.render()


def test_a_one_ulp_change_is_a_difference():
    p99 = 55.0
    moved = math.nextafter(p99, math.inf)
    comparison = compare_reports(_report(_scenario()),
                                 _report(_scenario(latency_p99_us=moved)))
    assert comparison.exit_code == 1
    [difference] = comparison.differences
    assert (difference.scenario, difference.key) == ("chain", "latency_p99_us")
    assert (difference.old, difference.new) == (p99, moved)
    # Full repr digits, so the two sides never print alike.
    assert repr(moved) in comparison.render()


def test_a_value_on_one_side_only_is_a_difference():
    old = _scenario()
    new = _scenario(moved_flows=3)
    del new.metrics["lost"]
    new.stage_us["copy"] = 0.0
    comparison = compare_reports(_report(old), _report(new))
    assert comparison.exit_code == 1
    assert [(d.key, d.old, d.new) for d in comparison.differences] == [
        ("lost", 0, ABSENT),
        ("moved_flows", ABSENT, 3),
        ("stage_us.copy", ABSENT, 0.0),
    ]


def test_detects_injected_20pct_latency_regression():
    comparison = compare_reports(
        _report(_scenario()),
        _report(_scenario(latency_p50_us=38.0 * 1.2,
                          latency_p99_us=55.0 * 1.2)))
    assert not comparison.ok and comparison.exit_code == 1
    moved = {(d.scenario, d.key) for d in comparison.differences}
    assert moved == {("chain", "latency_p50_us"), ("chain", "latency_p99_us")}


def test_throughput_drop_and_new_loss_are_regressions():
    comparison = compare_reports(
        _report(_scenario()),
        _report(_scenario(throughput_mpps=5.26 * 0.8, lost=3)))
    assert comparison.exit_code == 1
    assert {d.key for d in comparison.differences} == {"throughput_mpps",
                                                       "lost"}


def test_differing_packet_budgets_are_noted():
    new = _scenario()
    new.params["packets"] = 3000
    comparison = compare_reports(_report(_scenario()), _report(new))
    assert [(d.key, d.old, d.new) for d in comparison.differences] == [
        ("params.packets", 800, 3000)]


def test_a_scenario_on_one_side_only_is_a_difference():
    old = _report(_scenario("kept"), _scenario("removed_one"))
    new = _report(_scenario("kept"), _scenario("added_one"))
    comparison = compare_reports(old, new)
    assert comparison.exit_code == 1
    one_sided = {(d.scenario, d.old is ABSENT, d.new is ABSENT)
                 for d in comparison.differences}
    assert one_sided == {("removed_one", False, True),
                         ("added_one", True, False)}
    rendered = comparison.render()
    assert "added_one" in rendered and "removed_one" in rendered


def test_an_unpinned_scenario_is_a_difference():
    comparison = compare_reports(_report(), _report(_scenario("new_one")))
    assert comparison.exit_code == 1
    assert [d.scenario for d in comparison.differences] == ["new_one"]


def test_schema_mismatch_refuses_to_compare():
    old = _report(_scenario())
    new = _report(_scenario())
    new.schema = "repro.bench/0"
    with pytest.raises(ValueError, match="schema mismatch"):
        compare_reports(old, new)
