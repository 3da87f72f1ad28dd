"""Integration tests: telemetry across the full NFP dataplane.

The headline assertion from the subsystem's acceptance criteria: a
3-NF parallel chain produces a *complete span tree* per packet --
classify -> 3 x (nf_start/nf_end) -> merge_wait/merge_apply -> output --
with zero dropped span events.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.core import Orchestrator, Policy
from repro.eval import latency_breakdown, measure_nfp
from repro.telemetry import SpanKind, TelemetryHub, Tracer

CHAIN = ["firewall", "ids", "monitor"]


@pytest.fixture(scope="module")
def traced_run():
    tracer = Tracer()
    hub = TelemetryHub(tracer=tracer)
    result = measure_nfp(CHAIN, packets=300, telemetry=hub, seed=11)
    return result, hub, tracer


def test_parallel_chain_has_complete_span_tree(traced_run):
    result, hub, tracer = traced_run
    assert tracer.overflow == 0, "span events were dropped"
    traces = tracer.traces()
    assert len(traces) == 300
    for trace in traces.values():
        assert trace.is_complete()
        assert (len(trace.by_kind(SpanKind.NF_START))
                == len(trace.by_kind(SpanKind.NF_END)))
        kinds = trace.kinds()
        assert kinds[0] is SpanKind.CLASSIFY
        assert kinds[-1] is SpanKind.OUTPUT
        # All three NFs ran in the single parallel stage.
        ends = trace.by_kind(SpanKind.NF_END)
        assert {event.name for event in ends} == set(CHAIN)
        # Rendezvous: the merger waited, then applied.
        assert len(trace.by_kind(SpanKind.MERGE_WAIT)) == 1
        assert len(trace.by_kind(SpanKind.MERGE_APPLY)) == 1
        merge_ts = trace.by_kind(SpanKind.MERGE_APPLY)[0].ts_us
        assert all(event.ts_us <= merge_ts for event in ends)
    assert result.delivered == 300


def test_metrics_cover_every_layer(traced_run):
    _, hub, _ = traced_run
    registry = hub.registry
    # Classifier, NFs, mergers, rings, engine, cores all reported in.
    assert registry.counter_value("classifier.packets") == 300
    for nf in CHAIN:
        assert registry.counter_value(f"nf.{nf}.rx") == 300
        assert registry.histograms[f"nf.{nf}.service_us"].count == 300
    assert registry.counter_value("merger.merged") == 300
    assert registry.counter_value("merger.at_insert") == 300
    # Two follow-up notifications per packet hit the open AT entry.
    assert registry.counter_value("merger.at_hit") == 600
    assert registry.counter_value("tx.packets") == 300
    # 3 classifier->NF hops + 3 NF->merger hops per packet.
    assert registry.counter_value("ring.hops") == 1800
    assert registry.gauges["engine.events_processed"].value > 0
    assert "ring.firewall.rx.hwm" in registry.gauges
    assert "core.classifier.utilisation" in registry.gauges
    assert registry.histograms["latency_us"].count == 300


def test_disabled_telemetry_has_no_observable_effect():
    base = measure_nfp(CHAIN, packets=300, seed=11)
    traced = measure_nfp(CHAIN, packets=300, seed=11,
                         telemetry=TelemetryHub(tracer=Tracer()))
    # The DES is deterministic: telemetry must not perturb the clock.
    assert traced.latency_mean_us == pytest.approx(base.latency_mean_us)
    assert traced.delivered == base.delivered


def test_copy_counters_on_a_copying_graph():
    # ids|monitor|loadbalancer needs a header copy for the LB (§4.2 OP#2).
    tracer = Tracer()
    hub = TelemetryHub(tracer=tracer)
    graph = Orchestrator().compile(
        Policy.from_chain(["ids", "monitor", "loadbalancer"])
    ).graph
    assert graph.num_versions == 2
    measure_nfp(graph, packets=200, telemetry=hub, seed=5)
    assert hub.registry.counter_value("copy.header") == 200
    assert hub.registry.counter_value("copy.full") == 0
    copies = [ev for ev in tracer.events if ev.kind is SpanKind.COPY]
    assert len(copies) == 200
    assert all(ev.version == 2 for ev in copies)
    # Merge operations were applied (LB writes folded back into v1).
    assert hub.registry.counter_value("merge.ops.modify") > 0


def test_breakdown_consumes_tracer_spans():
    breakdown = latency_breakdown(CHAIN, packets=400, seed=3)
    assert breakdown.packets == 400
    assert {"ingest", "stage 0", "merge", "egress"} <= set(breakdown.segments)
    measured = measure_nfp(CHAIN, packets=400, seed=3)
    assert breakdown.total_us == pytest.approx(measured.latency_mean_us,
                                               rel=0.15)


def test_trace_cli_writes_valid_chrome_trace(tmp_path, capsys):
    out = str(tmp_path / "trace.json")
    jsonl = str(tmp_path / "trace.jsonl")
    rc = cli_main(["trace", "--chain", ",".join(CHAIN), "--packets", "120",
                   "--out", out, "--jsonl", jsonl])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "complete lifecycles" in captured
    assert "overflowed: 0" in captured
    for nf in CHAIN:
        assert nf in captured  # the ASCII per-NF summary table
    with open(out) as handle:
        document = json.load(handle)
    assert document["traceEvents"]
    assert all({"ph", "ts", "pid", "tid"} <= set(entry)
               for entry in document["traceEvents"])
    with open(jsonl) as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    assert lines and all("kind" in record for record in lines)


def test_measure_cli_telemetry_flag(capsys):
    rc = cli_main(["measure", "--chain", "firewall,ids", "--systems", "nfp",
                   "--packets", "200", "--telemetry"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "per-NF telemetry" in captured
    assert "ring hops" in captured
