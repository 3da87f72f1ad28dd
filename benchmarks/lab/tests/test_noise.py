"""Re-runs keep their checks; the saturation search never clamps."""

import os
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

sys.path.insert(0, os.path.abspath(os.path.join(os.path.dirname(__file__), "../../..")))

from benchmarks.lab import child, cli  # noqa: E402

QUIET = 0.0120


def _fake_spawn(monkeypatch, mismatches):
    """Children whose oracle, whenever it runs, finds ``mismatches``."""
    specs = []

    def spawn(spec):
        specs.append(spec)
        return {"calib_s": QUIET, "failed": mismatches if spec["check"] else 0}

    monkeypatch.setattr(cli, "spawn", spawn)
    return specs


def test_rerun_of_noisy_repeat_zero_runs_the_oracle_again(monkeypatch):
    specs = _fake_spawn(monkeypatch, mismatches=7)
    records = {"we_x4_64b_func": [{"calib_s": 0.0200, "failed": 7}]
               + [{"calib_s": QUIET, "failed": 0} for _ in range(4)]}
    assert cli.rerun_noisy(records, seed=1, scale=1.0, limit=3) == 1
    assert [spec["check"] for spec in specs] == [True]
    assert records["we_x4_64b_func"][0]["failed"] == 7


def test_reruns_are_capped_worst_first_and_later_repeats_skip_the_oracle(monkeypatch):
    specs = _fake_spawn(monkeypatch, mismatches=0)
    records = {
        "a": [{"calib_s": QUIET}, {"calib_s": 0.0150}, {"calib_s": QUIET}],
        "b": [{"calib_s": QUIET}, {"calib_s": QUIET}, {"calib_s": 0.0300}],
        "c": [{"calib_s": 0.0125}, {"calib_s": QUIET}, {"calib_s": 0.0140}],
    }
    assert cli.rerun_noisy(records, seed=1, scale=1.0, limit=2) == 2
    assert [(spec["workload"], spec["check"]) for spec in specs] == [
        ("b", False), ("a", False)]
    assert records["c"][2]["calib_s"] == 0.0140  # over the cap: kept as it was
    assert records["c"][0]["calib_s"] == 0.0125  # within 10%: never re-run


@dataclass(frozen=True)
class _Probe:
    rate_mpps: float = 0.0


def _server_that_saturates_at(monkeypatch, capacity):
    probed = []

    def plain_run(W, workload, seed, packets):
        probed.append(workload.rate_mpps)
        ok = workload.rate_mpps <= capacity
        rig = SimpleNamespace(server=SimpleNamespace(
            lost=0, rate=SimpleNamespace(delivered=packets)))
        res = SimpleNamespace(failed=0, offered=packets,
                              model={"model_p99_us": 100.0 if ok else 900.0})
        return rig, res

    monkeypatch.setattr(child, "_plain_run", plain_run)
    return probed


def test_saturation_search_finds_the_last_sustained_step(monkeypatch):
    probed = _server_that_saturates_at(monkeypatch, 1.205)
    assert child._max_mpps(None, _Probe(), 1) == pytest.approx(1.20)
    assert len(probed) == 6  # neither end is the answer: no extra probe


@pytest.mark.parametrize("capacity, end", [(0.45, "below 0.50"), (2.5, "above 1.78")])
def test_saturation_outside_the_searched_range_is_an_error(monkeypatch, capacity, end):
    _server_that_saturates_at(monkeypatch, capacity)
    with pytest.raises(RuntimeError, match=end):
        child._max_mpps(None, _Probe(), 1)


@pytest.mark.parametrize("capacity, answer", [(0.505, 0.50), (1.765, 1.76)])
def test_saturation_at_either_end_is_probed_not_assumed(monkeypatch, capacity, answer):
    probed = _server_that_saturates_at(monkeypatch, capacity)
    assert child._max_mpps(None, _Probe(), 1) == pytest.approx(answer)
    assert len(probed) == 7 and probed[-1] in (pytest.approx(0.50), pytest.approx(1.78))
