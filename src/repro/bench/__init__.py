"""repro.bench: every model-clock number, pinned in one file.

A registry of named scenarios (:mod:`repro.bench.spec`), each with its
own packet budget and seed, is run by :func:`run_bench` into one
schema-versioned report (:mod:`repro.bench.schema`) of model-clock
readings plus a per-stage time attribution rolled up from
:mod:`repro.telemetry` tracer spans.  The DES is deterministic, so the
report is byte-reproducible: ``benchmarks/results/baseline.json`` pins
it, and :func:`compare_reports` (:mod:`repro.bench.compare`) diffs two
reports with ``==``.  ``tests/integration/test_model_clock_golden.py``
runs every scenario against that file.

Entry points: ``python -m repro bench --out new.json`` to measure,
``python -m repro bench --compare old.json new.json`` to diff.
"""

from .schema import (
    SCHEMA,
    BenchReport,
    ScenarioResult,
    measurement_to_dict,
    validate_bench,
)
from .spec import PAPER_SPECS, REGISTRY, BenchmarkSpec, SpecOutcome, specs_for
from .runner import run_bench, run_spec, summary_table
from .compare import ABSENT, ComparisonReport, Difference, compare_reports

__all__ = [
    "SCHEMA",
    "BenchReport",
    "ScenarioResult",
    "measurement_to_dict",
    "validate_bench",
    "BenchmarkSpec",
    "SpecOutcome",
    "REGISTRY",
    "PAPER_SPECS",
    "specs_for",
    "run_bench",
    "run_spec",
    "summary_table",
    "ABSENT",
    "ComparisonReport",
    "Difference",
    "compare_reports",
]
