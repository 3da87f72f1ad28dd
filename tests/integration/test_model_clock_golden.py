"""Model-clock gate: every registered bench scenario, pinned bit for bit.

Every paper-facing number this repo publishes is a model-clock reading
of one of the timed servers, and every one of them is a scenario of the
``repro.bench`` registry.  ``benchmarks/results/baseline.json`` pins
them all; this test runs each scenario at its own budget and seed and
compares every value of its row with ``==`` -- no tolerance.  A change
to the event path, to tie-breaking among same-time events or to the
delivery/retry machinery must leave all of them exactly where they
were.  On a failure the message is that scenario's
``repro bench --compare`` table.

Re-pin (only when a model change is intended, and say so in CHANGES.md;
to show a change moved nothing, regenerate *at its parent* and diff --
docs/BENCHMARKS.md)::

    PYTHONPATH=src python -m repro bench --out benchmarks/results/baseline.json
"""

import os

import pytest

from repro.bench import REGISTRY, BenchReport, compare_reports, run_spec
from repro.cli import main
from repro.sim import DEFAULT_PARAMS

BASELINE = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks",
                        "results", "baseline.json")


@pytest.fixture(scope="module")
def pinned():
    return BenchReport.load(BASELINE)


def _pinned_row(pinned, name):
    """The scenario's pinned row alone (no row: an empty report)."""
    return BenchReport([row for row in pinned.scenarios if row.name == name])


def _diff(pinned, name):
    return compare_reports(_pinned_row(pinned, name),
                           BenchReport([run_spec(REGISTRY[name])]))


def test_every_pinned_row_is_a_registered_scenario(pinned):
    assert pinned.names() == list(REGISTRY)


@pytest.mark.parametrize("name", list(REGISTRY))
def test_model_clock_is_bit_identical(name, pinned):
    diff = _diff(pinned, name)
    assert diff.ok, "\n" + diff.render()


def test_a_one_percent_model_change_fails_the_gate(pinned, monkeypatch,
                                                   tmp_path, capsys):
    name = "fig13_west_east_seed7"
    monkeypatch.setattr(DEFAULT_PARAMS, "merge_latency_us",
                        DEFAULT_PARAMS.merge_latency_us * 1.01)
    diff = _diff(pinned, name)
    moved = {d.key: d for d in diff.differences}
    assert {"latency_mean_us", "latency_p50_us", "latency_p99_us"} <= set(moved)
    # A +-10% band on latency, throughput and overhead let this through.
    for key in ("latency_mean_us", "latency_p50_us", "latency_p99_us",
                "throughput_mpps", "resource_overhead"):
        if key in moved:
            assert abs(moved[key].new - moved[key].old) < 0.1 * moved[key].old
    with pytest.raises(AssertionError, match="latency_p99_us"):
        test_model_clock_is_bit_identical(name, pinned)

    old, new = tmp_path / "pinned.json", tmp_path / "moved.json"
    _pinned_row(pinned, name).save(str(old))
    assert main(["bench", "--only", name, "--out", str(new)]) == 0
    capsys.readouterr()
    assert main(["bench", "--compare", str(old), str(new)]) == 1
    cells = [[cell.strip() for cell in line.split("|")][:2]
             for line in capsys.readouterr().out.splitlines()]
    assert [name, "latency_p99_us"] in cells
