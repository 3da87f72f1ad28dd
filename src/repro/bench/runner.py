"""Run the registered scenarios and assemble a ``BenchReport``."""

from __future__ import annotations

from typing import Callable, List, Optional

from ..eval.report import render_table
from ..telemetry.rollup import STAGE_NAMES
from .schema import BenchReport, ScenarioResult
from .spec import BenchmarkSpec, specs_for

__all__ = ["run_spec", "run_bench", "summary_table"]


def run_spec(spec: BenchmarkSpec) -> ScenarioResult:
    """Run one scenario at its own packet budget and seed."""
    outcome = spec.runner(spec.packets, spec.seed)
    return ScenarioResult.from_parts(
        name=spec.name,
        measurement=outcome.measurement,
        rollup=outcome.rollup,
        params=outcome.params,
        extra_metrics=outcome.extra_metrics,
        table=outcome.table,
    )


def run_bench(
    names: Optional[List[str]] = None,
    log: Optional[Callable[[str], None]] = None,
) -> BenchReport:
    """Run the named scenarios (default: all) into one report."""
    scenarios: List[ScenarioResult] = []
    for spec in specs_for(names):
        if log is not None:
            log(f"running {spec.name} ({spec.description})")
        scenarios.append(run_spec(spec))
    return BenchReport(scenarios=scenarios)


def summary_table(report: BenchReport) -> str:
    """Per-scenario ASCII summary for the CLI."""
    rows = []
    for result in report.scenarios:
        if result.table:
            rows.append([result.name, "-", "-", "-", "-",
                         f"table of {len(result.table['rows'])} rows"])
            continue
        stages = result.stage_us
        total = sum(stages.values())
        if total > 0:
            dominant = max(STAGE_NAMES, key=lambda name: stages.get(name, 0.0))
            share = f"{dominant} ({stages[dominant] / total * 100:.0f}%)"
        else:
            share = "-"
        rows.append([
            result.name,
            result.metrics.get("latency_p50_us", 0.0),
            result.metrics.get("latency_p99_us", 0.0),
            result.metrics.get("throughput_mpps", 0.0),
            result.metrics.get("resource_overhead", 0.0) * 100,
            share,
        ])
    return render_table(
        ["scenario", "p50 us", "p99 us", "Mpps", "overhead %",
         "dominant stage"],
        rows,
    )
