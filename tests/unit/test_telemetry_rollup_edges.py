"""Telemetry edge cases the bench rollups depend on.

The bench subsystem folds tracer spans into stage attributions and
merges registries across repeated runs; these tests pin the edge
behaviour that pipeline relies on: empty histograms refuse percentiles,
mismatched bucket bounds refuse to merge (including via registry
merge), snapshots are isolated from later mutation, and the stage
rollup itself stays well-defined on empty/odd event streams.
"""

import pytest

from repro.telemetry import (
    Histogram,
    MetricsRegistry,
    SpanEvent,
    SpanKind,
    StageRollup,
    stage_rollup,
)
from repro.telemetry.rollup import STAGE_NAMES


def _event(kind, ts=0.0, duration=0.0, args=None, name=""):
    return SpanEvent(kind=kind, ts_us=ts, mid=1, pid=1, version=1,
                     name=name, duration_us=duration, args=args)


# ------------------------------------------------------------- histograms
def test_empty_histogram_refuses_percentile_and_mean():
    histogram = Histogram("empty")
    with pytest.raises(ValueError, match="empty"):
        histogram.percentile(50)
    with pytest.raises(ValueError, match="empty"):
        histogram.percentile(99)
    with pytest.raises(ValueError, match="empty"):
        _ = histogram.mean


def test_histogram_merge_mismatched_bounds_raises():
    left = Histogram("h", bounds=(1.0, 2.0, 4.0))
    right = Histogram("h", bounds=(1.0, 3.0, 9.0))
    right.record(2.5)
    with pytest.raises(ValueError, match="bounds"):
        left.merge_from(right)
    # The failed merge must not have corrupted the target.
    assert left.count == 0


def test_registry_merge_mismatched_histogram_bounds_raises():
    left = MetricsRegistry()
    left.histogram("latency_us", bounds=(1.0, 2.0)).record(1.5)
    right = MetricsRegistry()
    right.histogram("latency_us", bounds=(1.0, 2.0, 4.0)).record(3.0)
    with pytest.raises(ValueError, match="bounds"):
        left.merge(right)


# -------------------------------------------------------------- snapshots
def test_snapshot_isolated_from_later_mutation():
    registry = MetricsRegistry()
    registry.counter("packets").inc(3)
    registry.gauge("occupancy").set(0.5)
    registry.histogram("svc", bounds=(1.0, 2.0)).record(1.5)

    snap = registry.snapshot()
    registry.counter("packets").inc(7)
    registry.gauge("occupancy").set(0.9)
    registry.histogram("svc", bounds=(1.0, 2.0)).record(0.5)

    assert snap["counters"]["packets"] == 3
    assert snap["gauges"]["occupancy"] == 0.5
    assert snap["histograms"]["svc"]["count"] == 1


def test_mutating_snapshot_does_not_touch_registry():
    registry = MetricsRegistry()
    registry.counter("packets").inc(3)
    registry.histogram("svc", bounds=(1.0, 2.0)).record(1.5)

    snap = registry.snapshot()
    snap["counters"]["packets"] = 999
    snap["histograms"]["svc"]["buckets"][0] = 999

    assert registry.counter_value("packets") == 3
    assert registry.histograms["svc"].buckets[0] == 0


# ---------------------------------------------------------------- rollups
def test_stage_rollup_of_nothing_is_empty_and_share_safe():
    rollup = stage_rollup([])
    assert rollup.total_us == 0.0
    shares = rollup.shares()
    assert set(shares) == set(STAGE_NAMES)
    assert all(value == 0.0 for value in shares.values())


def test_stage_rollup_folds_each_kind():
    events = [
        _event(SpanKind.CLASSIFY, ts=5.0, args={"ingress_us": 2.0}),
        _event(SpanKind.NF_END, ts=9.0, duration=4.0, name="fw"),
        _event(SpanKind.COPY, ts=6.0, duration=1.5, name="header"),
        _event(SpanKind.MERGE_APPLY, ts=20.0, duration=2.0,
               args={"wait_us": 6.0}, name="merger0"),
        # Kinds the rollup does not attribute must be ignored.
        _event(SpanKind.ENQUEUE, ts=1.0),
        _event(SpanKind.OUTPUT, ts=30.0),
    ]
    rollup = stage_rollup(events)
    assert rollup.times_us["classify"] == pytest.approx(3.0)
    assert rollup.times_us["ft"] == pytest.approx(4.0)
    assert rollup.times_us["copy"] == pytest.approx(1.5)
    assert rollup.times_us["merge_wait"] == pytest.approx(6.0)
    assert rollup.times_us["merge_apply"] == pytest.approx(2.0)
    assert sum(rollup.shares().values()) == pytest.approx(1.0)


def test_stage_rollup_skips_eventless_edge_data():
    events = [
        # classify without the ingress timestamp: nothing to attribute
        _event(SpanKind.CLASSIFY, ts=5.0, args=None),
        # negative durations (clock weirdness) are dropped, not summed
        _event(SpanKind.NF_END, ts=1.0, duration=-3.0),
    ]
    rollup = stage_rollup(events)
    assert rollup.total_us == 0.0
    assert rollup.events["classify"] == 0
    assert rollup.events["ft"] == 0


def test_stage_rollup_rejects_unknown_stage():
    with pytest.raises(KeyError):
        StageRollup().add("mystery", 1.0)


def test_stage_rollup_merge_accumulates():
    first = stage_rollup([_event(SpanKind.NF_END, ts=4.0, duration=4.0)])
    second = stage_rollup([_event(SpanKind.NF_END, ts=2.0, duration=2.0),
                           _event(SpanKind.COPY, ts=1.0, duration=1.0)])
    first.merge(second)
    assert first.times_us["ft"] == pytest.approx(6.0)
    assert first.times_us["copy"] == pytest.approx(1.0)
    assert first.events["ft"] == 2
