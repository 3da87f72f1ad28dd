"""Unit tests for the span tracer and its exporters."""

import json

import pytest

from repro.net.packet import PacketMeta
from repro.telemetry import (
    SpanEvent,
    SpanKind,
    TelemetryHub,
    Tracer,
    events_from_chrome_trace,
    events_from_jsonl,
    events_to_jsonl,
    to_chrome_trace,
    write_chrome_trace,
)


def _record_lifecycle(tracer, mid, pid, base_ts=0.0, nfs=("fw", "ids")):
    """A minimal classify -> NF spans -> merge -> output lifecycle."""
    tracer.record(SpanKind.CLASSIFY, base_ts, mid, pid, 1, name="classifier",
                  args={"ingress_us": base_ts - 1.0})
    ts = base_ts
    for nf in nfs:
        tracer.record(SpanKind.ENQUEUE, ts, mid, pid, 1, name=f"{nf}.rx")
    for nf in nfs:
        ts += 1.0
        tracer.record(SpanKind.NF_START, ts, mid, pid, 1, name=nf)
        ts += 2.0
        tracer.record(SpanKind.NF_END, ts, mid, pid, 1, name=nf,
                      duration_us=2.0)
    tracer.record(SpanKind.MERGE_WAIT, ts, mid, pid, 1, name="merger0")
    ts += 1.0
    tracer.record(SpanKind.MERGE_APPLY, ts, mid, pid, 1, name="merger0")
    ts += 1.0
    tracer.record(SpanKind.OUTPUT, ts, mid, pid, 1, name="nic-tx")
    return ts


# ------------------------------------------------------------- reassembly
def test_events_reassemble_per_pid_in_causal_order():
    tracer = Tracer()
    # Interleave two packets; within-packet order must survive grouping.
    _record_lifecycle(tracer, mid=1, pid=7, base_ts=0.0)
    _record_lifecycle(tracer, mid=1, pid=8, base_ts=0.5)

    traces = tracer.traces()
    assert set(traces) == {(1, 7), (1, 8)}
    for trace in traces.values():
        kinds = trace.kinds()
        assert kinds[0] is SpanKind.CLASSIFY
        assert kinds[-1] is SpanKind.OUTPUT
        timestamps = [event.ts_us for event in trace.events]
        assert timestamps == sorted(timestamps)
        assert trace.is_complete()
        starts = trace.by_kind(SpanKind.NF_START)
        ends = trace.by_kind(SpanKind.NF_END)
        assert len(starts) == len(ends)
        assert [event.name for event in ends] == ["fw", "ids"]
        assert all(end.ts_us > start.ts_us for start, end in zip(starts, ends))


def test_simultaneous_events_keep_recording_order():
    tracer = Tracer()
    tracer.record(SpanKind.NF_START, 5.0, 1, 1, 1, name="fw")
    tracer.record(SpanKind.NF_END, 5.0, 1, 1, 1, name="fw")
    trace = tracer.traces()[(1, 1)]
    assert trace.kinds() == [SpanKind.NF_START, SpanKind.NF_END]
    assert trace.events[0].seq < trace.events[1].seq


def test_tracer_overflow_counts_dropped_events():
    tracer = Tracer(max_events=2)
    for _ in range(5):
        tracer.record(SpanKind.ENQUEUE, 0.0, 1, 1, 1)
    assert len(tracer) == 2
    assert tracer.overflow == 3
    tracer.clear()
    assert len(tracer) == 0 and tracer.overflow == 0


def test_capped_tracer_behind_a_hub_stores_exactly_its_bound():
    tracer = Tracer(max_events=3)
    hub = TelemetryHub(tracer=tracer)
    for pid in range(5):
        hub.span(SpanKind.ENQUEUE, float(pid), PacketMeta(mid=1, pid=pid), "fw.rx")
    hub.span(SpanKind.OUTPUT, 9.0, None)  # meta-less: neither stored nor counted
    assert len(tracer) == 3
    assert tracer.overflow == 2
    assert [event.pid for event in tracer.events] == [0, 1, 2]
    assert [event.seq for event in tracer.events] == [1, 2, 3]
    assert sorted(tracer.traces()) == [(1, 0), (1, 1), (1, 2)]
    tracer.clear()
    hub.span(SpanKind.ENQUEUE, 1.0, PacketMeta(mid=1, pid=7), "fw.rx")
    assert len(tracer) == 1 and tracer.overflow == 0
    # seq runs on across a clear.
    assert tracer.events[0].seq == 4


def test_hub_counter_refuses_a_decrement():
    hub = TelemetryHub()
    with pytest.raises(ValueError):
        hub.inc("fresh", -1)
    hub.inc("seen", 2)
    with pytest.raises(ValueError):
        hub.inc("seen", -1)
    assert hub.registry.counter_value("seen") == 2


def test_disabled_hub_records_nothing():
    tracer = Tracer()
    hub = TelemetryHub(enabled=False, tracer=tracer)
    assert not hub.tracing
    hub.inc("tx.packets")
    hub.inc("tx.packets", -1)  # not even checked: the call is a no-op
    hub.observe("latency_us", 3.0)
    hub.gauge("ring.occupancy", 0.5)
    hub.span(SpanKind.OUTPUT, 1.0, PacketMeta(mid=1, pid=1), "nic-tx")
    assert len(tracer) == 0 and tracer.events == []
    assert hub.registry.snapshot() == {"counters": {}, "gauges": {},
                                       "histograms": {}}


def test_events_are_read_only_and_load_appends_rows():
    tracer = Tracer()
    tracer.record(SpanKind.CLASSIFY, 1.0, 1, 7, 1, "classifier")
    with pytest.raises(AttributeError):
        tracer.events = []
    copy = Tracer()
    copy.load(tracer.events)
    copy.load(tracer.events)
    assert len(copy) == 2
    assert [event.seq for event in copy.events] == [1, 2]
    assert copy.rows == tracer.rows * 2


def test_hub_span_uses_packet_meta():
    tracer = Tracer()
    hub = TelemetryHub(tracer=tracer)
    assert hub.tracing
    meta = PacketMeta(mid=5, pid=1234, version=2)
    hub.span(SpanKind.COPY, 3.0, meta, name="header")
    hub.span(SpanKind.COPY, 4.0, None)  # meta-less packets are skipped
    assert len(tracer) == 1
    event = tracer.events[0]
    assert (event.mid, event.pid, event.version) == (5, 1234, 2)


# --------------------------------------------------------------- exporters
def test_jsonl_round_trip(tmp_path):
    tracer = Tracer()
    _record_lifecycle(tracer, mid=1, pid=7)
    path = str(tmp_path / "events.jsonl")
    written = events_to_jsonl(tracer.events, path)
    assert written == len(tracer.events)
    restored = events_from_jsonl(path)
    assert restored == tracer.events


def test_chrome_trace_round_trip():
    tracer = Tracer()
    _record_lifecycle(tracer, mid=1, pid=7, nfs=("fw", "ids", "mon"))
    document = to_chrome_trace(tracer.events)
    # Valid JSON and well-formed trace_event structure.
    document = json.loads(json.dumps(document))
    assert document["traceEvents"]
    assert all(entry["ph"] in ("X", "i", "M")
               for entry in document["traceEvents"])
    slices = [entry for entry in document["traceEvents"] if entry["ph"] == "X"]
    assert {entry["name"] for entry in slices} == {"fw", "ids", "mon"}
    assert all(entry["dur"] == pytest.approx(2.0) for entry in slices)
    # Every (pid, tid) lane used by a slice is labelled with the
    # component name via a thread_name metadata event.
    labels = {
        (entry["pid"], entry["tid"]): entry["args"]["name"]
        for entry in document["traceEvents"]
        if entry["ph"] == "M" and entry["name"] == "thread_name"
    }
    for entry in slices:
        assert labels[(entry["pid"], entry["tid"])] == entry["name"]

    restored = events_from_chrome_trace(document)
    original = tracer.traces()[(1, 7)]
    round_tripped = Tracer()
    round_tripped.load(restored)
    trace = round_tripped.traces()[(1, 7)]
    # Kinds, names and timestamps survive the round trip.
    assert sorted((e.kind, e.ts_us, e.name) for e in trace.events) == (
        sorted((e.kind, e.ts_us, e.name) for e in original.events)
    )
    assert [(e.name, e.ts_us, e.duration_us)
            for e in trace.by_kind(SpanKind.NF_END)] == [
        (e.name, e.ts_us, e.duration_us)
        for e in original.by_kind(SpanKind.NF_END)]


def test_chrome_trace_unmatched_start_becomes_zero_slice():
    tracer = Tracer()
    tracer.record(SpanKind.NF_START, 1.0, 1, 1, 1, name="fw")
    document = to_chrome_trace(tracer.events)
    (entry,) = [e for e in document["traceEvents"] if e["ph"] != "M"]
    assert entry["ph"] == "X" and entry["dur"] == 0.0
    assert entry["args"]["incomplete"] is True


def test_write_chrome_trace(tmp_path):
    tracer = Tracer()
    _record_lifecycle(tracer, mid=1, pid=7)
    path = str(tmp_path / "trace.json")
    count = write_chrome_trace(tracer.events, path)
    with open(path) as handle:
        document = json.load(handle)
    assert len(document["traceEvents"]) == count


def test_span_event_dict_round_trip():
    event = SpanEvent(SpanKind.DROP, 4.2, 1, 2, 3, name="nil", seq=9,
                      args={"reason": "x"})
    assert SpanEvent.from_dict(event.to_dict()) == event
