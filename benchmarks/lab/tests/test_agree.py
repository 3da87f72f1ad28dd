"""--agree: same / worse / better / unresolved from the catalogue's bounds."""

import copy
import json
import os
import sys

sys.path.insert(0, os.path.abspath(os.path.join(os.path.dirname(__file__), "../../..")))

from benchmarks.lab import catalog, cli  # noqa: E402


def _report():
    workloads = {}
    for name in catalog.ALL_WORKLOADS:
        end_to_end = {}
        for metric in catalog.END_TO_END:
            if name not in metric.workloads:
                continue
            value = 0.0 if metric.name == "failed_share" else 100.0
            spread = 0.01 * value if metric.clock == "host" else 0.0
            end_to_end[metric.name] = {"value": value, "q1": value - spread,
                                       "q3": value + spread, "n": 9}
        workloads[name] = {"end_to_end": end_to_end}
    return {"schema": 1, "workloads": workloads}


def _write(tmp_path, name, report):
    path = tmp_path / name
    path.write_text(json.dumps(report))
    return str(path)


def _metric(name):
    return next(m for m in catalog.END_TO_END if m.name == name)


def test_identical_inputs_agree(tmp_path, capsys):
    a = _write(tmp_path, "a.json", _report())
    assert cli.agree(a, a) == 0
    out = capsys.readouterr().out
    assert "worse" not in out and "unresolved" not in out
    assert out.count("same") == sum(len(m.workloads) for m in catalog.END_TO_END)


def test_injected_15_percent_slowdown_is_flagged(tmp_path, capsys):
    slow = _report()
    stat = slow["workloads"]["we_x4_64b_func"]["end_to_end"]["host_pkts_per_s"]
    for key in ("value", "q1", "q3"):
        stat[key] *= 0.85
    a = _write(tmp_path, "a.json", _report())
    b = _write(tmp_path, "b.json", slow)
    assert cli.agree(a, b) == 1
    rows = [line for line in capsys.readouterr().out.splitlines()
            if "worse" in line]
    assert len(rows) == 1
    assert rows[0].startswith("we_x4_64b_func") and "host_pkts_per_s" in rows[0]
    assert cli.agree(b, a) == 0  # the other way round it is a gain


def test_verdicts():
    rate, p50 = _metric("host_pkts_per_s"), _metric("model_p50_us")
    base = {"value": 100.0, "q1": 99.0, "q3": 101.0, "n": 9}
    assert cli.verdict(rate, base, base) == "same"
    faster = {"value": 115.0, "q1": 114.0, "q3": 116.0, "n": 9}
    assert cli.verdict(rate, base, faster) == "better"
    noisy = dict(base, q1=80.0, q3=120.0)
    assert cli.verdict(rate, base, noisy) == "unresolved"
    exact = {"value": 80.0, "q1": 80.0, "q3": 80.0, "n": 9}
    assert cli.verdict(p50, exact, exact) == "same"
    assert cli.verdict(p50, exact, dict(exact, value=82.0, q1=82.0, q3=82.0)) == "worse"
    setup = _metric("setup_s")
    small = {"value": 0.10, "q1": 0.10, "q3": 0.10, "n": 9}
    # 20% or 0.05 s, whichever is larger.
    assert cli.verdict(setup, small, dict(small, value=0.14, q1=0.14, q3=0.14)) == "same"
    assert cli.verdict(setup, small, dict(small, value=0.16, q1=0.16, q3=0.16)) == "worse"
    large = {"value": 1.0, "q1": 1.0, "q3": 1.0, "n": 9}
    assert cli.verdict(setup, large, dict(large, value=1.15, q1=1.15, q3=1.15)) == "same"
    assert cli.verdict(setup, large, dict(large, value=1.25, q1=1.25, q3=1.25)) == "worse"
    failed = _metric("failed_share")
    clean = {"value": 0.0, "q1": 0.0, "q3": 0.0, "n": 1}
    assert cli.verdict(failed, clean, dict(clean, value=0.01, q1=0.01, q3=0.01)) == "worse"
    assert copy.deepcopy(clean) == clean
