"""Unit tests for declarative watch rules and the Watcher."""

import pytest

from repro.telemetry import TelemetryHub, Watcher, parse_rule
from repro.telemetry.timeseries import Window
from repro.telemetry.metrics import Histogram


def _window(index, **kwargs):
    return Window(index=index, start_us=index * 10.0,
                  end_us=(index + 1) * 10.0, **kwargs)


# ----------------------------------------------------------------- parsing
def test_parse_rule_grammar():
    rule = parse_rule("ring.occupancy > 0.8 for 3 windows")
    assert rule.metric == "ring.occupancy"
    assert rule.op == ">"
    assert rule.threshold == 0.8
    assert rule.for_windows == 3


def test_parse_rule_slo_threshold_and_singular_window():
    rule = parse_rule("p99_us > slo for 1 window")
    assert rule.threshold == "slo"
    assert rule.for_windows == 1
    with pytest.raises(ValueError):
        rule.resolve_threshold(None)  # slo rule needs a watcher slo
    assert rule.resolve_threshold(250.0) == 250.0


def test_parse_rule_rejects_garbage():
    for text in ("", "latency >", "> 5", "x ~ 3", "x > 5 for 0 windows"):
        with pytest.raises(ValueError):
            parse_rule(text)


# --------------------------------------------------------------- hysteresis
def test_rule_fires_after_n_consecutive_windows_and_clears_on_first_ok():
    rule = parse_rule("ring.occupancy > 0.8 for 3 windows")
    breaching = {"gauges": {"ring.occupancy": 0.9}}
    calm = {"gauges": {"ring.occupancy": 0.1}}
    assert rule.observe(_window(0, **breaching)) is None
    assert rule.observe(_window(1, **breaching)) is None
    fired = rule.observe(_window(2, **breaching))
    assert fired is not None and fired.state == "firing"
    assert rule.observe(_window(3, **breaching)) is None  # still firing
    cleared = rule.observe(_window(4, **calm))
    assert cleared is not None and cleared.state == "cleared"
    assert (rule.fired, rule.cleared) == (1, 1)


def test_rule_streak_resets_on_non_breaching_window():
    rule = parse_rule("drops.total > 0 for 2 windows")
    assert rule.observe(_window(0, counters={"drops.total": 1})) is None
    assert rule.observe(_window(1)) is None  # absent metric = non-breaching
    assert rule.observe(_window(2, counters={"drops.total": 1})) is None
    fired = rule.observe(_window(3, counters={"drops.total": 1}))
    assert fired is not None and fired.state == "firing"


def test_percentile_rule_reads_window_delta_histogram():
    rule = parse_rule("p99(latency_us) > 100")
    histogram = Histogram("latency_us")
    for value in (10.0, 20.0, 5000.0):
        histogram.record(value)
    fired = rule.observe(_window(0, histograms={"latency_us": histogram}))
    assert fired is not None and fired.state == "firing"
    assert fired.value > 100


def test_p99_us_shorthand_resolves_against_slo():
    watcher = Watcher(["p99_us > slo"], slo_us=100.0)
    histogram = Histogram("latency_us")
    histogram.record(5000.0)
    events = watcher.observe(_window(0, histograms={"latency_us": histogram}))
    assert len(events) == 1 and events[0].state == "firing"
    assert events[0].threshold == 100.0


# ------------------------------------------------------------------ watcher
def test_watcher_mirrors_alert_counts_into_hub_and_notifies_callbacks():
    hub = TelemetryHub()
    watcher = Watcher(["x > 5"], hub=hub)
    seen = []
    watcher.on_alert(seen.append)
    watcher.observe(_window(0, counters={"x": 9}))
    watcher.observe(_window(1, counters={"x": 1}))
    assert [event.state for event in seen] == ["firing", "cleared"]
    assert hub.registry.counter_value("watch.x > 5.fired") == 1
    assert hub.registry.counter_value("watch.x > 5.cleared") == 1
    assert watcher.fired == 1 and watcher.cleared == 1
    assert watcher.still_firing() == []
    assert "FIRING" in seen[0].describe()
