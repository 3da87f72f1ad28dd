"""Unit tests for critical-path latency attribution."""

import pytest

from repro.telemetry import (
    SEGMENT_NAMES,
    SpanKind,
    Tracer,
    critical_path,
    critpath_report,
)


def _forked_trace(tracer, mid=1, pid=1, slow_end=8.0, wait_us=5.0,
                  apply_ts=12.0, terminal=SpanKind.OUTPUT):
    """classify -> copy -> (fw | ids) -> merge -> terminal, hand-timed."""
    tracer.record(SpanKind.CLASSIFY, 1.0, mid, pid, 1, name="classifier",
                  args={"ingress_us": 0.0})
    tracer.record(SpanKind.COPY, 1.5, mid, pid, 2, name="header",
                  duration_us=0.5)
    tracer.record(SpanKind.NF_START, 2.0, mid, pid, 1, name="fw")
    tracer.record(SpanKind.NF_END, 4.0, mid, pid, 1, name="fw",
                  duration_us=2.0)
    tracer.record(SpanKind.NF_START, 2.0, mid, pid, 2, name="ids")
    tracer.record(SpanKind.NF_END, slow_end, mid, pid, 2, name="ids",
                  duration_us=3.0)
    tracer.record(SpanKind.MERGE_APPLY, apply_ts, mid, pid, 1,
                  name="merger0", duration_us=1.0,
                  args={"wait_us": wait_us})
    tracer.record(terminal, apply_ts + 1.0, mid, pid, 1, name="nic-tx")


def test_critical_path_decomposes_a_forked_trace():
    tracer = Tracer()
    _forked_trace(tracer)
    path = critical_path(tracer.traces()[(1, 1)])
    assert path is not None and not path.dropped
    assert path.total_us == pytest.approx(13.0)
    assert path.segments["classify"] == pytest.approx(1.0)
    assert path.segments["copy"] == pytest.approx(0.5)
    # The ids branch ends last (t=8), so it gates: 3us of service and
    # the rest of its elapsed window is queueing wait.
    assert path.gating_branch == "ids"
    assert path.segments["branch"] == pytest.approx(3.0)
    assert path.segments["branch_wait"] == pytest.approx(3.5)
    # AT wait was 5us but the gating branch only finished 3us before the
    # apply started: only the exposed 3us gate the packet.
    assert path.segments["merge_wait"] == pytest.approx(3.0)
    assert path.segments["merge_apply"] == pytest.approx(1.0)
    assert path.explained_us + path.segments["residual"] == pytest.approx(
        path.total_us)


def test_critical_path_requires_terminal_and_classify():
    tracer = Tracer()
    tracer.record(SpanKind.CLASSIFY, 1.0, 1, 1, 1, name="classifier")
    assert critical_path(tracer.traces()[(1, 1)]) is None  # no terminal


def test_critpath_report_tail_attribution_finds_merge_wait():
    tracer = Tracer()
    # 99 fast packets and one rendezvous-stalled straggler.
    for pid in range(99):
        _forked_trace(tracer, pid=pid)
    _forked_trace(tracer, pid=99, wait_us=500.0, apply_ts=509.0)
    report = critpath_report(tracer.traces().values())
    assert report.count == 100
    assert report.dominant_tail_segment() == "merge_wait"
    delta = report.tail_delta()
    assert delta["merge_wait"] > 400.0
    assert set(report.to_dict()) >= {"packets", "mean_us",
                                     "dominant_tail_segment"}
    assert "merge_wait" in report.table()
    assert report.gating_branches() == {"ids": 100}


def test_critpath_report_skips_drops_by_default():
    tracer = Tracer()
    _forked_trace(tracer, pid=1, terminal=SpanKind.DROP)
    assert critpath_report(tracer.traces().values()).count == 0
    assert critical_path(tracer.traces()[(1, 1)]).dropped


def test_segment_names_partition_every_path():
    tracer = Tracer()
    _forked_trace(tracer)
    path = critical_path(tracer.traces()[(1, 1)])
    assert set(path.segments) == set(SEGMENT_NAMES)
