"""The paper's figures and tables as ``baseline.json`` pins them.

Each experiment of §6/§7 that runs the DES is one ``repro.bench``
scenario whose figure or table ``benchmarks/results/baseline.json``
pins, and ``tests/integration/test_model_clock_golden.py`` holds every
pinned row equal to a fresh run.  Tests that assert on a figure read it
from here instead of re-running the experiment.
"""

from __future__ import annotations

import functools
import os
from typing import Dict, List

from repro.bench import BenchReport, ScenarioResult
from repro.eval import ExperimentTable

BASELINE = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks",
                        "results", "baseline.json")

__all__ = ["BASELINE", "pinned_scenario", "pinned_table", "pinned_records"]


@functools.lru_cache(maxsize=1)
def _pinned() -> BenchReport:
    return BenchReport.load(BASELINE)


def pinned_scenario(name: str) -> ScenarioResult:
    return _pinned().scenario(name)


def pinned_table(name: str) -> ExperimentTable:
    return pinned_scenario(name).experiment_table()


def pinned_records(name: str) -> List[Dict]:
    """The pinned rows as ``{header: cell}`` maps."""
    table = pinned_table(name)
    return [dict(zip(table.headers, row)) for row in table.rows]
