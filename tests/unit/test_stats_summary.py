"""Tests for the shared summary-stat helpers and the warm-up edge case."""

import warnings

import pytest

from repro.sim.stats import LatencyStats, LatencySummary, percentile, summarize


def test_summarize_matches_percentile_helpers():
    data = [float(v) for v in range(1, 101)]
    summary = summarize(data)
    assert isinstance(summary, LatencySummary)
    assert summary.count == 100
    assert summary.mean == pytest.approx(50.5)
    assert summary.p50 == percentile(sorted(data), 50.0)
    assert summary.p90 == percentile(sorted(data), 90.0)
    assert summary.p99 == percentile(sorted(data), 99.0)
    assert summary.max == 100.0


def test_summarize_empty_raises():
    with pytest.raises(ValueError):
        summarize([])


def test_latency_stats_summary_uses_steady_state():
    stats = LatencyStats(warmup_fraction=0.5)
    for value in (1000.0, 1.0, 2.0, 3.0):
        stats.record(value)
    summary = stats.summary()
    # The warm-up half (1000.0, 1.0) is trimmed.
    assert summary.count == 2
    assert summary.mean == pytest.approx(2.5)
    assert stats.warmup_skipped == 2
    assert stats.warmup_effective


def test_short_run_warns_once_about_ineffective_warmup():
    stats = LatencyStats(warmup_fraction=0.1)
    for value in (1.0, 2.0, 3.0):  # 3 samples -> skip = int(0.3) = 0
        stats.record(value)
    assert not stats.warmup_effective
    with pytest.warns(UserWarning, match="warm-up skip is empty"):
        assert stats.mean == pytest.approx(2.0)
    # Warned once; further statistics stay quiet.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert stats.p99 > 0


def test_allow_partial_warmup_silences_the_warning():
    stats = LatencyStats(warmup_fraction=0.1, allow_partial_warmup=True)
    stats.record(5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert stats.mean == 5.0


def test_no_warning_when_warmup_disabled_or_effective():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        disabled = LatencyStats(warmup_fraction=0.0)
        disabled.record(1.0)
        assert disabled.mean == 1.0

        effective = LatencyStats(warmup_fraction=0.1)
        for value in range(20):
            effective.record(float(value))
        assert effective.warmup_effective
        assert effective.mean > 0
