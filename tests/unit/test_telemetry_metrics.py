"""Unit tests for repro.telemetry metrics: histogram math, registry merge."""

import random
import statistics

import pytest

from repro.telemetry import (
    DEFAULT_LATENCY_BOUNDS_US,
    Histogram,
    MetricsRegistry,
    NULL_HUB,
    TelemetryHub,
    exponential_bounds,
)


# ---------------------------------------------------------------- histogram
def test_exponential_bounds_shape():
    bounds = exponential_bounds(1.0, 2.0, 5)
    assert bounds == (1.0, 2.0, 4.0, 8.0, 16.0)
    with pytest.raises(ValueError):
        exponential_bounds(0.0, 2.0, 5)
    with pytest.raises(ValueError):
        exponential_bounds(1.0, 1.0, 5)


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Histogram("h", bounds=())
    with pytest.raises(ValueError):
        Histogram("h", bounds=(5.0, 1.0))


def test_histogram_exact_quantities():
    hist = Histogram("svc", bounds=(1.0, 10.0, 100.0))
    for value in (0.5, 5.0, 50.0, 500.0):
        hist.record(value)
    assert hist.count == 4
    assert hist.total == pytest.approx(555.5)
    assert hist.mean == pytest.approx(555.5 / 4)
    assert hist.min == 0.5
    assert hist.max == 500.0
    # One value per bucket including the overflow bucket.
    assert hist.buckets == [1, 1, 1, 1]


def test_histogram_empty_raises():
    hist = Histogram("svc")
    with pytest.raises(ValueError):
        hist.mean
    with pytest.raises(ValueError):
        hist.percentile(50)
    hist.record(1.0)
    with pytest.raises(ValueError):
        hist.percentile(150)


def test_histogram_percentiles_vs_statistics_quantiles():
    """Bucket-interpolated percentiles track the exact sample quantiles
    to within one bucket's width."""
    rng = random.Random(42)
    samples = [rng.uniform(1.0, 5000.0) for _ in range(4000)]
    hist = Histogram("lat", bounds=DEFAULT_LATENCY_BOUNDS_US)
    for value in samples:
        hist.record(value)

    quantiles = statistics.quantiles(samples, n=100, method="inclusive")
    for pct in (25, 50, 75, 90, 99):
        exact = quantiles[pct - 1]
        estimate = hist.percentile(pct)
        # The winning bucket's bounds bracket the true quantile.
        bucket = next(
            i for i, b in enumerate(hist.bounds) if exact <= b
        )
        lower = hist.bounds[bucket - 1] if bucket else 0.0
        upper = hist.bounds[bucket]
        assert lower <= estimate <= upper * 1.0001
        # And interpolation keeps the estimate close in relative terms.
        assert estimate == pytest.approx(exact, rel=0.5)
    # Extremes clamp to observed values.
    assert hist.percentile(0) == pytest.approx(min(samples))
    assert hist.percentile(100) == pytest.approx(max(samples))


def test_histogram_merge_equals_union():
    rng = random.Random(7)
    first, second = Histogram("a"), Histogram("a")
    values_a = [rng.expovariate(0.01) for _ in range(500)]
    values_b = [rng.expovariate(0.002) for _ in range(500)]
    for value in values_a:
        first.record(value)
    for value in values_b:
        second.record(value)
    union = Histogram("a")
    for value in values_a + values_b:
        union.record(value)

    first.merge_from(second)
    assert first.count == union.count
    assert first.buckets == union.buckets
    assert first.total == pytest.approx(union.total)
    assert first.min == union.min and first.max == union.max
    assert first.percentile(99) == pytest.approx(union.percentile(99))


def test_histogram_merge_rejects_mismatched_bounds():
    with pytest.raises(ValueError):
        Histogram("a", bounds=(1.0, 2.0)).merge_from(
            Histogram("a", bounds=(1.0, 3.0))
        )


# ----------------------------------------------------------------- registry
def test_registry_get_or_create_identity():
    registry = MetricsRegistry()
    assert registry.counter("x") is registry.counter("x")
    assert registry.gauge("g") is registry.gauge("g")
    assert registry.histogram("h") is registry.histogram("h")
    assert registry.counter_value("missing") == 0


def test_registry_merge_semantics():
    """Counters add, gauges keep the peak, histograms union."""
    left, right = MetricsRegistry(), MetricsRegistry()
    left.counter("pkts").inc(10)
    right.counter("pkts").inc(5)
    right.counter("only_right").inc(2)
    left.gauge("hwm").set(3.0)
    right.gauge("hwm").set(9.0)
    left.histogram("lat").record(10.0)
    right.histogram("lat").record(1000.0)

    left.merge(right)
    assert left.counter_value("pkts") == 15
    assert left.counter_value("only_right") == 2
    assert left.gauges["hwm"].value == 9.0
    assert left.histograms["lat"].count == 2
    assert left.histograms["lat"].max == 1000.0


def test_counter_rejects_negative():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.counter("c").inc(-1)


def test_registry_snapshot_is_plain_data():
    import json

    registry = MetricsRegistry()
    registry.counter("a").inc(3)
    registry.gauge("b").set(1.5)
    registry.histogram("c", bounds=(1.0, 2.0)).record(1.5)
    snap = registry.snapshot()
    assert snap["counters"] == {"a": 3}
    assert snap["gauges"] == {"b": 1.5}
    assert snap["histograms"]["c"]["count"] == 1
    json.dumps(snap)  # JSON-serialisable end to end


# ---------------------------------------------------------------------- hub
def test_disabled_hub_records_nothing():
    hub = TelemetryHub(enabled=False)
    hub.inc("x")
    hub.gauge("g", 1.0)
    hub.observe("h", 5.0)
    hub.span(None, 0.0, None)
    assert not hub.registry.counters
    assert not hub.registry.gauges
    assert not hub.registry.histograms
    assert not hub.tracing
    assert not NULL_HUB.enabled


def test_enabled_hub_routes_to_registry():
    hub = TelemetryHub()
    hub.inc("x", 4)
    hub.gauge("g", 2.0)
    hub.observe("h", 5.0)
    assert hub.registry.counter_value("x") == 4
    assert hub.registry.gauges["g"].value == 2.0
    assert hub.registry.histograms["h"].count == 1
    assert not hub.tracing  # no tracer attached
