"""The row-store recording path against the object-per-span one it replaced.

``TelemetryHub`` appends each span to ``Tracer.rows`` as a plain tuple
and reaches counters and histograms through dicts bound at
construction; ``Tracer.events`` builds the ``SpanEvent``s lazily.
``tests/support/telemetry_reference.py`` is the parent's hub and tracer:
one ``SpanEvent`` per span, numbered from a running ``_seq``, every
metric looked up by name through the registry.  The same random stream
of calls -- spans with and without ``args``, by position and by keyword,
counters, histograms with default and custom bounds, reads of
``events`` mid-stream, clears, capped tracers, disabled hubs -- must
leave both with the same ``events`` (every field, ``seq`` included, in
order), the same overflow and the same ``registry.snapshot()``.
"""

from hypothesis import given, settings, strategies as st

from repro.net.packet import PacketMeta
from repro.telemetry.hooks import TelemetryHub
from repro.telemetry.metrics import exponential_bounds
from repro.telemetry.tracer import SpanKind, Tracer
from tests.support import telemetry_reference as ref

NAMES = ["", "classifier", "fw", "merger0", "nic-tx", "header"]
METRICS = ["tx.packets", "nf.fw.rx", "nf.fw.service_us", "latency_us"]
BOUNDS = [None, exponential_bounds(0.5, 4.0, 6), (1.0, 10.0, 100.0)]

metas = st.one_of(
    st.none(),
    st.builds(PacketMeta, mid=st.integers(0, 5), pid=st.integers(0, 1 << 39),
              version=st.integers(1, 15)),
)
args = st.one_of(st.none(), st.dictionaries(
    st.sampled_from(["ingress_us", "bytes", "wait_us", "degraded"]),
    st.one_of(st.floats(allow_nan=False), st.booleans(), st.integers()),
    max_size=2))
#: The optional span fields, in signature order.  A draw's ``mask``
#: picks a prefix of them for a positional call (``mask % 4`` fields)
#: and any subset for a keyword call (its bits).
optional = st.tuples(st.sampled_from(NAMES),
                     st.floats(0.0, 1e6, allow_nan=False), args)

ops = st.one_of(
    st.tuples(st.just("span"), st.sampled_from(list(SpanKind)),
              st.floats(0.0, 1e9, allow_nan=False), metas, optional,
              st.integers(0, 7), st.booleans()),
    st.tuples(st.just("inc"), st.sampled_from(METRICS), st.integers(0, 5),
              st.booleans()),
    st.tuples(st.just("observe"), st.sampled_from(METRICS),
              st.floats(-10.0, 1e7, allow_nan=False),
              st.sampled_from(BOUNDS)),
    st.tuples(st.just("gauge"), st.sampled_from(METRICS),
              st.floats(-1e3, 1e3, allow_nan=False)),
    st.just(("events",)),
    st.just(("clear",)),
)


def _apply(hub, op) -> None:
    if op[0] == "span":
        _, kind, ts_us, meta, fields, mask, by_keyword = op
        if by_keyword:
            keywords = zip(("name", "duration_us", "args"), fields)
            hub.span(kind, ts_us, meta, **{
                key: value for bit, (key, value) in enumerate(keywords)
                if mask >> bit & 1})
        else:
            hub.span(kind, ts_us, meta, *fields[:mask % 4])
    elif op[0] == "inc":
        _, name, n, default = op
        if default and n == 1:
            hub.inc(name)
        else:
            hub.inc(name, n)
    elif op[0] == "observe":
        _, name, value, bounds = op
        if bounds is None:
            hub.observe(name, value)
        else:
            hub.observe(name, value, bounds)
    elif op[0] == "gauge":
        hub.gauge(op[1], op[2])
    elif op[0] == "clear":
        hub.tracer.clear()


@settings(max_examples=300, deadline=None)
@given(stream=st.lists(ops, min_size=4, max_size=60),
       # Mostly the path the dataplane runs: enabled, traced, uncapped.
       cap=st.sampled_from([None, None, None, 0, 1, 3, 8]),
       enabled=st.sampled_from([True, True, True, False]),
       traced=st.sampled_from([True, True, True, False]))
def test_row_store_records_what_the_object_store_recorded(stream, cap,
                                                          enabled, traced):
    new = TelemetryHub(enabled=enabled,
                       tracer=Tracer(max_events=cap) if traced else None)
    old = ref.TelemetryHub(enabled=enabled,
                           tracer=ref.Tracer(max_events=cap) if traced else None)
    for op in stream:
        if op[0] in ("events", "clear") and not traced:
            continue
        _apply(new, op)
        _apply(old, op)
        if op[0] == "events":
            assert new.tracer.events == old.tracer.events
    if traced:
        assert new.tracer.events == old.tracer.events
        assert len(new.tracer) == len(old.tracer)
        assert new.tracer.overflow == old.tracer.overflow
        assert new.tracer.traces() == old.tracer.traces()
    assert new.registry.snapshot() == old.registry.snapshot()
    assert new.tracing == old.tracing


@settings(max_examples=100, deadline=None)
@given(stream=st.lists(ops, min_size=4, max_size=40))
def test_direct_record_and_load_match_the_object_store(stream):
    """``Tracer.record`` by hand, and ``load`` of what was read back."""
    new, old = Tracer(), ref.Tracer()
    for op in stream:
        if op[0] == "span" and op[3] is not None:
            _, kind, ts_us, meta, (name, duration_us, extra), _, _ = op
            for tracer in (new, old):
                tracer.record(kind, ts_us, meta.mid, meta.pid, meta.version,
                              name, duration_us, extra)
        elif op[0] == "clear":
            new.clear()
            old.clear()
    assert new.events == old.events
    loaded = Tracer()
    loaded.load(new.events)
    assert [e.to_dict() | {"seq": 0} for e in loaded.events] == [
        e.to_dict() | {"seq": 0} for e in old.events]
    assert [e.seq for e in loaded.events] == list(range(1, len(old.events) + 1))
