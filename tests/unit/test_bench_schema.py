"""Unit tests for the bench result model: serializer and validation."""

import json

import pytest

from repro.bench import (
    BenchReport,
    SCHEMA,
    ScenarioResult,
    measurement_to_dict,
    validate_bench,
)
from repro.eval.harness import MeasurementResult
from repro.telemetry import SpanEvent, SpanKind, stage_rollup


def _measurement(**overrides) -> MeasurementResult:
    fields = dict(
        system="NFP", label="fw->fw", latency_mean_us=40.0,
        latency_p50_us=38.0, latency_p99_us=55.0, throughput_mpps=5.26,
        bottleneck="merger", offered_mpps=3.68, delivered=800, lost=0,
        nil_dropped=0, resource_overhead=0.0, cores_used=4,
    )
    fields.update(overrides)
    return MeasurementResult(**fields)


def _rollup():
    return stage_rollup([
        SpanEvent(kind=SpanKind.NF_END, ts_us=4.0, mid=1, pid=1, version=1,
                  duration_us=4.0),
        SpanEvent(kind=SpanKind.CLASSIFY, ts_us=3.0, mid=1, pid=1, version=1,
                  args={"ingress_us": 1.0}),
    ])


def _scenario(name="fw_fw", **measurement_overrides) -> ScenarioResult:
    return ScenarioResult.from_parts(
        name=name,
        measurement=measurement_to_dict(_measurement(**measurement_overrides)),
        rollup=_rollup(),
        params={"packets": 800, "seed": 1},
        extra_metrics={"copies_full": 0, "drops.nil": 2},
    )


def _report(*scenarios) -> BenchReport:
    return BenchReport(list(scenarios) or [_scenario()])


def test_measurement_to_dict_carries_every_figure_quantity():
    record = measurement_to_dict(_measurement())
    for key in ("latency_mean_us", "latency_p50_us", "latency_p99_us",
                "throughput_mpps", "resource_overhead", "cores_used",
                "delivered", "lost", "bottleneck", "lossless"):
        assert key in record
    assert record["lossless"] is True
    assert json.loads(json.dumps(record)) == record


def test_report_round_trips_through_json(tmp_path):
    path = tmp_path / "baseline.json"
    report = _report(_scenario(latency_p99_us=0.1 + 0.2))
    report.save(str(path))
    loaded = BenchReport.load(str(path))
    assert loaded.schema == SCHEMA
    assert loaded.to_dict() == report.to_dict()
    scenario = loaded.scenario("fw_fw")
    assert scenario.metrics["latency_p99_us"] == 0.1 + 0.2
    assert scenario.stage_us["ft"] == 4.0
    assert scenario.values()["params.seed"] == 1
    assert scenario.values()["drops.nil"] == 2
    # The file holds the schema and the rows: nothing about the host.
    assert set(json.loads(path.read_text())) == {"schema", "scenarios"}


def test_validate_flags_schema_and_structure_problems():
    document = _report().to_dict()
    assert validate_bench(document) == []

    wrong_schema = dict(document, schema="repro.bench/2")
    assert any("schema" in problem for problem in validate_bench(wrong_schema))

    no_scenarios = dict(document, scenarios=[])
    assert any("scenarios" in p for p in validate_bench(no_scenarios))

    missing_metric = _report().to_dict()
    del missing_metric["scenarios"][0]["metrics"]["latency_p99_us"]
    assert any("latency_p99_us" in p for p in validate_bench(missing_metric))

    duplicate = _report(_scenario(), _scenario()).to_dict()
    assert any("duplicate" in p for p in validate_bench(duplicate))


def _table_scenario() -> ScenarioResult:
    return ScenarioResult(
        name="fig_x", system="experiment", label="Figure X",
        params={"packets": 1200, "seed": 1},
        table={"headers": ["degree", "lat_us"], "rows": [[2, 40.5], [3, 47.25]]},
    )


def test_a_table_stands_in_for_the_latency_metrics(tmp_path):
    path = tmp_path / "baseline.json"
    report = _report(_scenario(), _table_scenario())
    report.save(str(path))
    loaded = BenchReport.load(str(path)).scenario("fig_x")
    assert loaded.table == _table_scenario().table
    # One pinned value per cell, keyed by its row and column.
    assert loaded.values()["table[1].lat_us"] == 47.25
    assert loaded.experiment_table().column("degree") == [2, 3]
    # A scenario without a table writes no table key.
    assert "table" not in json.loads(path.read_text())["scenarios"][0]


def test_validate_rejects_a_record_with_neither_metrics_nor_table():
    document = _report(_table_scenario()).to_dict()
    assert validate_bench(document) == []
    del document["scenarios"][0]["table"]
    problems = validate_bench(document)
    assert any("latency_p99_us missing" in p for p in problems)


def test_validate_rejects_a_ragged_table_row():
    document = _report(_table_scenario()).to_dict()
    document["scenarios"][0]["table"]["rows"][1].append(9.0)
    assert validate_bench(document) == [
        "scenarios[0].table.rows[1] is not a row of 2 cells"]
    document["scenarios"][0]["table"]["rows"] = []
    assert any("rows missing or empty" in p for p in validate_bench(document))


def test_validate_requires_non_empty_stage_attribution():
    document = _report().to_dict()
    document["scenarios"][0]["stage_us"] = {
        name: 0.0 for name in ("classify", "ft")
    }
    assert any("attributes no time" in p for p in validate_bench(document))
    document["scenarios"][0]["stage_us"] = {"bogus_stage": 1.0}
    assert any("unknown stages" in p for p in validate_bench(document))
    # A scenario with no tracer counts no spans and attributes nothing.
    document["scenarios"][0]["stage_us"] = {"classify": 0.0}
    document["scenarios"][0]["stage_events"] = {"classify": 0}
    assert validate_bench(document) == []


def test_save_refuses_invalid_report(tmp_path):
    report = _report()
    report.scenarios[0].metrics.pop("lost")
    with pytest.raises(ValueError, match="lost"):
        report.save(str(tmp_path / "baseline.json"))
