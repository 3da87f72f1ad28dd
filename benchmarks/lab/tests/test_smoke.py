"""The one command on tiny budgets: names, shapes and the manifest."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "../../.."))
sys.path.insert(0, ROOT)

from benchmarks.lab import catalog  # noqa: E402

RUN = [sys.executable, os.path.join(ROOT, "benchmarks", "lab", "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_manifest_matches_the_catalogue(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/lab"]
    assert [w["name"] for w in manifest["workloads"]] == list(catalog.ALL_WORKLOADS)
    by_name = {m.name: m for m in catalog.END_TO_END + catalog.PER_LAYER}
    assert [m["name"] for m in manifest["end_to_end"]] == list(catalog.DRIVER_END_TO_END)
    for entry in manifest["end_to_end"]:
        metric = by_name[entry["name"]]
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert (entry["unit"], entry["better"], entry["bound"]) == (
            metric.unit, metric.better, catalog.DRIVER_END_TO_END[metric.name])
        assert metric.bound <= entry["bound"] <= 0.25
    listed = [m["name"] for m in manifest["per_layer"]]
    expected = [m.name for m in catalog.END_TO_END
                if m.name not in catalog.DRIVER_END_TO_END]
    expected += [m.name for m in catalog.PER_LAYER]
    assert listed == expected and len(listed) <= 128
    for entry in manifest["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        assert (entry["unit"], entry["better"]) == (
            by_name[entry["name"]].unit, by_name[entry["name"]].better)
    names = listed + list(catalog.DRIVER_END_TO_END) + list(catalog.ALL_WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in manifest["workloads"])


def test_smoke_run_prints_every_promised_name(manifest, tmp_path):
    out, trace = tmp_path / "smoke.json", tmp_path / "trace.json"
    proc = subprocess.run(RUN + ["--smoke", "--seed", "3", "--out", str(out),
                                 "--trace-out", str(trace)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())["workloads"]
    assert sorted(report) == sorted(catalog.ALL_WORKLOADS)
    promised = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    for name, part in report.items():
        have = set(part["end_to_end"]) | set(part["per_layer"])
        assert not [p for p in promised if p not in have], name
        for metric in catalog.END_TO_END:
            assert (metric.name in part["end_to_end"]) == (name in metric.workloads)
            assert metric.name in proc.stdout
        assert part["per_layer"]["bench.model_repeat_mismatch"] == 0
        for metric in catalog.PER_LAYER:
            if name not in metric.workloads:  # reads 0 where it does not apply
                assert part["per_layer"][metric.name] == 0, metric.name
        shares = [v for k, v in part["per_layer"].items() if k.endswith(".share")]
        assert sum(shares) == pytest.approx(1.0, abs=0.02)
        assert all(NAME.match(k) for k in have)
    assert report["ns_dcmix_func"]["per_layer"]["net.crypto.share"] > 0.9
    assert report["we_x4_64b_func"]["per_layer"]["net.crypto.share"] < 0.01
    assert report["we_x4_64b_func"]["per_layer"]["sim.share"] == 0
    assert report["we_dcmix_des"]["per_layer"]["sim.share"] > 0.15
    for name in ("ns_dcmix_func", "we_x4_64b_func", "we_dcmix_des"):
        assert report[name]["failed"] == 0
    events = json.loads(trace.read_text())["traceEvents"]
    assert {e["pid"] for e in events} == {1, 2, 3, 4}
    spans = [e for e in events if e["ph"] == "X"]
    assert spans and all({"ts", "dur", "name", "cat", "args"} <= set(e) for e in spans)


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_line(manifest, trace, tmp_path):
    proc = subprocess.run(
        RUN + ["--smoke", "--workload", "we_x4_64b_func", "--seed", "5",
               "--seconds", "1", "--trace", str(trace),
               "--trace-out", str(tmp_path / "t.json")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    listed = manifest["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in listed]
    for entry in listed:
        got = line["metrics"][entry["name"]]
        assert got["unit"] == entry["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_nothing_to_measure_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "benchmarks", "lab"),
                    tmp_path / "benchmarks" / "lab",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/lab/run.py", "--workload", "we_x4_64b_func",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
