"""The bench result model: schema-versioned, JSON-serialised, validated.

One :class:`BenchReport` is one run of the scenario registry: one
:class:`ScenarioResult` per scenario, holding model-clock readings only
-- nothing about the host that ran it -- so the same code writes the
same bytes.  ``benchmarks/results/baseline.json`` is such a report: the
one place every model-clock number is pinned.

The same serializer backs ``python -m repro measure --json``
(:func:`measurement_to_dict`), so scripts never scrape ASCII tables.

Schema evolution: bump :data:`SCHEMA` when a field changes meaning or
disappears.  v3 (this schema) dropped the run metadata, the per-scenario
host wall-time and RSS, the derived stage shares and the ``volatile``
lists: a report is ``{"schema", "scenarios"}`` and every value in it is
compared with ``==``.  A paper experiment's record carries its figure
or table as an optional ``table`` map (``headers`` and ``rows``) in
place of the latency metrics; a record without one is read as before.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, IO, List, Union

from ..eval.experiments import ExperimentTable
from ..eval.harness import MeasurementResult
from ..telemetry.rollup import STAGE_NAMES, StageRollup

__all__ = [
    "SCHEMA",
    "measurement_to_dict",
    "ScenarioResult",
    "BenchReport",
    "validate_bench",
]

#: Current schema identifier, stored in every report.
SCHEMA = "repro.bench/3"

#: Metric keys every scenario without a ``table`` must carry.
REQUIRED_METRICS = ("latency_mean_us", "latency_p50_us", "latency_p99_us",
                    "delivered", "lost")

#: The record keys whose values are ``{name: value}`` maps, compared entry
#: by entry under ``<key>.<name>``.
_NESTED = ("params", "stage_us", "stage_events")


def measurement_to_dict(result: MeasurementResult) -> Dict:
    """Serialise a :class:`MeasurementResult` to plain JSON-able data.

    The single serialisation of measurement output in the repo: the
    bench runner embeds these fields in scenario metrics and the
    ``measure --json`` CLI dumps them verbatim.
    """
    return {
        "system": result.system,
        "label": result.label,
        "latency_mean_us": result.latency_mean_us,
        "latency_p50_us": result.latency_p50_us,
        "latency_p99_us": result.latency_p99_us,
        "throughput_mpps": result.throughput_mpps,
        "bottleneck": result.bottleneck,
        "offered_mpps": result.offered_mpps,
        "delivered": result.delivered,
        "lost": result.lost,
        "nil_dropped": result.nil_dropped,
        "resource_overhead": result.resource_overhead,
        "cores_used": result.cores_used,
        "lossless": result.lossless,
    }


@dataclass
class ScenarioResult:
    """One scenario's model-clock readings and per-stage attribution."""

    name: str
    system: str
    label: str
    params: Dict = field(default_factory=dict)
    metrics: Dict = field(default_factory=dict)
    stage_us: Dict[str, float] = field(default_factory=dict)
    stage_events: Dict[str, int] = field(default_factory=dict)
    #: A paper experiment's figure or table: ``{"headers": [...],
    #: "rows": [[...], ...]}``; empty for every other scenario.
    table: Dict = field(default_factory=dict)

    @classmethod
    def from_parts(
        cls,
        name: str,
        measurement: Dict,
        rollup: StageRollup,
        params: Dict,
        extra_metrics: Dict = None,
        table: Dict = None,
    ) -> "ScenarioResult":
        metrics = {
            key: value
            for key, value in measurement.items()
            if key not in ("system", "label")
        }
        if extra_metrics:
            metrics.update(extra_metrics)
        return cls(
            name=name,
            system=measurement.get("system", "NFP"),
            label=measurement.get("label", name),
            params=dict(params),
            metrics=metrics,
            stage_us=dict(rollup.times_us),
            stage_events=dict(rollup.events),
            table=dict(table or {}),
        )

    def experiment_table(self) -> ExperimentTable:
        """The pinned figure or table, titled by the label, to render or
        read by column."""
        return ExperimentTable(self.label, self.table["headers"],
                               self.table["rows"])

    def values(self) -> Dict[str, object]:
        """Every pinned value under one flat key: metrics by name,
        ``params`` / ``stage_us`` / ``stage_events`` entries as
        ``<map>.<entry>``, ``system`` / ``label``, and each table cell
        as ``table[<row index>].<column header>``."""
        flat: Dict[str, object] = {"system": self.system, "label": self.label}
        flat.update(self.metrics)
        for key in _NESTED:
            flat.update((f"{key}.{entry}", value)
                        for entry, value in getattr(self, key).items())
        headers = self.table.get("headers", [])
        for index, row in enumerate(self.table.get("rows", [])):
            flat.update((f"table[{index}].{header}", cell)
                        for header, cell in zip(headers, row))
        return flat

    def to_dict(self) -> Dict:
        record = {
            "name": self.name,
            "system": self.system,
            "label": self.label,
            "params": self.params,
            "metrics": self.metrics,
            "stage_us": self.stage_us,
            "stage_events": self.stage_events,
        }
        if self.table:
            record["table"] = self.table
        return record

    @classmethod
    def from_dict(cls, record: Dict) -> "ScenarioResult":
        return cls(
            name=record["name"],
            system=record.get("system", "NFP"),
            label=record.get("label", record["name"]),
            params=dict(record.get("params", {})),
            metrics=dict(record.get("metrics", {})),
            stage_us=dict(record.get("stage_us", {})),
            stage_events=dict(record.get("stage_events", {})),
            table=dict(record.get("table", {})),
        )


@dataclass
class BenchReport:
    """A full run of the registry, as written to ``baseline.json``."""

    scenarios: List[ScenarioResult] = field(default_factory=list)
    schema: str = SCHEMA

    def scenario(self, name: str) -> ScenarioResult:
        for result in self.scenarios:
            if result.name == name:
                return result
        raise KeyError(f"no scenario {name!r} in report")

    def names(self) -> List[str]:
        return [result.name for result in self.scenarios]

    def to_dict(self) -> Dict:
        return {
            "schema": self.schema,
            "scenarios": [result.to_dict() for result in self.scenarios],
        }

    @classmethod
    def from_dict(cls, document: Dict) -> "BenchReport":
        return cls(
            schema=document.get("schema", ""),
            scenarios=[
                ScenarioResult.from_dict(record)
                for record in document.get("scenarios", [])
            ],
        )

    def save(self, target: Union[str, IO]) -> None:
        document = self.to_dict()
        problems = validate_bench(document)
        if problems:
            raise ValueError(
                "refusing to write an invalid bench report: "
                + "; ".join(problems)
            )
        own = isinstance(target, str)
        handle = open(target, "w") if own else target
        try:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        finally:
            if own:
                handle.close()

    @classmethod
    def load(cls, source: Union[str, IO]) -> "BenchReport":
        own = isinstance(source, str)
        handle = open(source) if own else source
        try:
            document = json.load(handle)
        finally:
            if own:
                handle.close()
        problems = validate_bench(document)
        if problems:
            raise ValueError(
                f"invalid bench report {source if own else ''}: "
                + "; ".join(problems)
            )
        return cls.from_dict(document)


def validate_bench(document: Dict) -> List[str]:
    """Check a bench document against the schema; returns problems found.

    An empty list means the document is valid.  Validation is structural
    (required keys, types, stage vocabulary) rather than jsonschema-based
    so it needs no third-party dependency.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["document is not an object"]
    if document.get("schema") != SCHEMA:
        problems.append(
            f"schema is {document.get('schema')!r}, expected {SCHEMA!r}"
        )
    scenarios = document.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        problems.append("scenarios missing or empty")
        return problems
    seen = set()
    for index, record in enumerate(scenarios):
        where = f"scenarios[{index}]"
        if not isinstance(record, dict):
            problems.append(f"{where} is not an object")
            continue
        name = record.get("name")
        if not name:
            problems.append(f"{where}.name missing")
        elif name in seen:
            problems.append(f"{where}: duplicate scenario name {name!r}")
        else:
            seen.add(name)
        metrics = record.get("metrics")
        if not isinstance(metrics, dict):
            problems.append(f"{where}.metrics missing")
            continue
        table = record.get("table")
        if table is not None:
            problems.extend(_table_problems(where, table))
        else:
            for key in REQUIRED_METRICS:
                if key not in metrics:
                    problems.append(f"{where}.metrics.{key} missing")
                elif not isinstance(metrics[key], (int, float)):
                    problems.append(f"{where}.metrics.{key} is not a number")
        stage_us = record.get("stage_us", {})
        unknown = set(stage_us) - set(STAGE_NAMES)
        if unknown:
            problems.append(
                f"{where}.stage_us has unknown stages {sorted(unknown)}"
            )
        elif (sum(record.get("stage_events", {}).values())
              and not sum(stage_us.values())):
            problems.append(f"{where}.stage_us attributes no time to the "
                            "spans it counts")
    return problems


def _table_problems(where: str, table) -> List[str]:
    """A table needs headers, at least one row, and no ragged row."""
    if not isinstance(table, dict):
        return [f"{where}.table is not an object"]
    headers, rows = table.get("headers"), table.get("rows")
    if not isinstance(headers, list) or not headers:
        return [f"{where}.table.headers missing or empty"]
    if not isinstance(rows, list) or not rows:
        return [f"{where}.table.rows missing or empty"]
    return [
        f"{where}.table.rows[{index}] is not a row of {len(headers)} cells"
        for index, row in enumerate(rows)
        if not isinstance(row, list) or len(row) != len(headers)
    ]
