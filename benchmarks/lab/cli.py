"""The lab's one command.

Three ways in:

* ``python -m benchmarks.lab --seed N [--out F] [--trace-out T]`` runs
  all four workloads -- nine repeats each, interleaved round-robin, then
  one traced repeat each -- and prints every metric by name;
* ``python3 benchmarks/lab/run.py --workload W --seed N --seconds S
  --trace 0|1`` is one run of one workload for the benchmark driver,
  ending in one JSON line;
* ``python -m benchmarks.lab --agree A.json B.json`` compares two
  ``--out`` files with the catalogue's bounds.

Everything runs from this one process, one child at a time, no threads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, NamedTuple, Optional, Sequence

from . import catalog
from .calib import CALIB_REF_S
from .spans import LAYERS

__all__ = ["main"]

LAB_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(LAB_DIR))
OUT_DIR = os.path.join(LAB_DIR, "out")

#: Nominal host seconds one repeat's packet budget takes.
REPEAT_SECONDS = 2.5
FULL_REPEATS = 9
#: A repeat whose calibration is this far from the invocation's median
#: ran on a different machine, in effect: it is re-run once.
NOISY_CALIB = 0.10
CHILD_TIMEOUT_S = 170
SMOKE_SCALE = 0.04


class LabError(RuntimeError):
    """A check could not run, or the output is not what was promised."""


# ---------------------------------------------------------------- children
def spawn(spec: Dict) -> Dict:
    """Run one child to completion and return the JSON it printed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.join(LAB_DIR, "run.py"),
         "--child", json.dumps(spec)],
        capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise LabError(f"child {spec} exited {proc.returncode}:\n"
                       f"{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise LabError(f"child {spec} printed no result") from exc


def timed_spec(workload: str, seed: int, scale: float, check: bool) -> Dict:
    return {"mode": "timed", "workload": workload, "seed": seed,
            "scale": scale, "check": check}


def spawn_traced(workload: str, seed: int, scale: float, trace_file: str,
                 first: Dict) -> Dict:
    """Run the traced child; ``repeats_model`` says whether its own
    model-clock numbers equal those of the timed repeat ``first``."""
    traced = spawn({"mode": "traced", "workload": workload, "seed": seed,
                    "scale": scale, "trace_file": trace_file})
    traced["repeats_model"] = traced["model"] is None or all(
        traced["model"][key] == value for key, value in first["model"].items())
    return traced


def rerun_noisy(records: Dict[str, List[Dict]], seed: int, scale: float,
                limit: int) -> int:
    """Re-run, once, the repeats whose calibration strayed; returns how many.

    At most ``limit`` re-runs, worst first: on a bad day every repeat
    strays, and the invocation still has to end on time.  Repeat 0
    carries the output oracle, so its re-run carries it too.
    """
    calib = [r["calib_s"] for rs in records.values() for r in rs]
    centre = statistics.median(calib)
    strays = sorted(
        ((abs(record["calib_s"] / centre - 1.0), workload, index)
         for workload, repeats in records.items()
         for index, record in enumerate(repeats)), reverse=True)
    noisy = [(workload, index) for off, workload, index in strays
             if off > NOISY_CALIB][:limit]
    for workload, index in noisy:
        records[workload][index] = spawn(
            timed_spec(workload, seed, scale, index == 0))
    return len(noisy)


# -------------------------------------------------------------- statistics
def _stat(values: Sequence[float]) -> Dict[str, float]:
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {"value": statistics.median(ordered), "q1": q1, "q3": q3,
            "n": len(ordered)}


def _exact(value: float) -> Dict[str, float]:
    return {"value": value, "q1": value, "q3": value, "n": 1}


class Summary(NamedTuple):
    """One workload's repeats: metric stats, packet totals, p-sample count."""

    stats: Dict[str, Dict]
    attempted: int
    failed: int
    model_samples: float


def summarize(repeats: List[Dict]) -> Summary:
    """End-to-end metrics (and ``bench.*``) of one workload's repeats."""
    rate = [r["offered"] / r["work_s"] * r["calib_s"] / CALIB_REF_S
            for r in repeats]
    raw = [r["offered"] / r["work_s"] for r in repeats]
    setup = [r["setup_raw_s"] * CALIB_REF_S / r["setup_calib_s"]
             for r in repeats]
    attempted = sum(r["offered"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    out = {
        "host_pkts_per_s": _stat(rate),
        "setup_s": _stat(setup),
        "peak_rss_mb": _stat([r["rss_mb"] for r in repeats]),
        "failed_share": _exact(failed / attempted),
    }
    first = repeats[0]
    mismatch = sum(1 for r in repeats[1:]
                   if r["model"] != first["model"]
                   or r["counters"] != first["counters"])
    for name, value in (first["model"] or {}).items():
        if name in catalog.END_TO_END_NAMES:
            out[name] = dict(_exact(value), n=len(repeats))
    spread = out["host_pkts_per_s"]
    out["bench.calib_loop_s"] = _stat([r["calib_s"] for r in repeats])
    out["bench.raw_pkts_per_s"] = _stat(raw)
    out["bench.repeat_iqr_pct"] = _exact(
        100.0 * (spread["q3"] - spread["q1"]) / spread["value"])
    out["bench.model_repeat_mismatch"] = _exact(float(mismatch))
    return Summary(out, attempted, failed,
                   (first["model"] or {}).get("model_samples", 0.0))


# ------------------------------------------------------------- driver mode
def manifest() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _metric_line(names: Sequence[str], values: Dict[str, Optional[float]],
                 units: Dict[str, str]) -> Dict[str, Dict]:
    missing = [name for name in names if name not in values]
    if missing:
        raise LabError(f"metrics promised in BENCHMARK.json but not "
                       f"measured: {missing}")
    # A path the pay-for-itself audit deleted reads 0 for the driver.
    return {name: {"value": 0.0 if values[name] is None else values[name],
                   "unit": units[name]} for name in names}


def run_for_driver(workload: str, seed: int, seconds: int, trace: bool,
                   scale: float, trace_out: Optional[str]) -> int:
    spec = manifest()
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise LabError(f"unknown workload {workload!r}")
    repeats = 2 if trace else max(3, round(seconds / REPEAT_SECONDS))
    records = {workload: [spawn(timed_spec(workload, seed, scale, i == 0))
                          for i in range(repeats)]}
    noisy = rerun_noisy(records, seed, scale, limit=1)
    summary = summarize(records[workload])
    values = {name: stat["value"] for name, stat in summary.stats.items()}
    values["bench.noisy_repeats"] = float(noisy)
    attempted, failed = summary.attempted, summary.failed
    correct = values["bench.model_repeat_mismatch"] == 0

    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        traced = spawn_traced(
            workload, seed, scale,
            trace_out or os.path.join(OUT_DIR, f"trace-{workload}.json"),
            records[workload][0])
        attempted += traced["offered"]
        failed += traced["failed"]
        correct = correct and traced["repeats_model"]
        values.update(traced["metrics"])
        values["failed_share"] = failed / attempted
        listed = spec["per_layer"]
    else:
        listed = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    line = {
        "correct": bool(correct and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": _metric_line([m["name"] for m in listed], values, units),
    }
    print(json.dumps(line))
    return 0


# --------------------------------------------------------------- full mode
def run_full(seed: int, repeats: int, scale: float, out: Optional[str],
             trace_out: Optional[str]) -> int:
    names = list(catalog.ALL_WORKLOADS)
    records: Dict[str, List[Dict]] = {name: [] for name in names}
    for index in range(repeats):
        for name in names:  # interleaved round-robin
            records[name].append(spawn(timed_spec(name, seed, scale, index == 0)))
    noisy = rerun_noisy(records, seed, scale, limit=repeats)

    os.makedirs(OUT_DIR, exist_ok=True)
    report: Dict[str, Dict] = {}
    trace_events: List[Dict] = []
    problems: List[str] = []
    for pid, name in enumerate(names, start=1):
        stats, attempted, failed, samples = summarize(records[name])
        part = os.path.join(OUT_DIR, f"trace-{name}.json")
        traced = spawn_traced(name, seed, scale, part, records[name][0])
        with open(part) as handle:
            for event in json.load(handle)["traceEvents"]:
                event["pid"] = pid
                trace_events.append(event)
        if not traced["repeats_model"]:
            stats["bench.model_repeat_mismatch"]["value"] += 1
        per_layer = dict(traced["metrics"])
        for key in [k for k in stats if k.startswith("bench.")]:
            per_layer[key] = stats.pop(key)["value"]
        per_layer["bench.noisy_repeats"] = float(noisy)
        attempted += traced["offered"]
        failed += traced["failed"]
        stats["failed_share"] = _exact(failed / attempted)
        for metric in catalog.END_TO_END:
            # Probes only the traced child runs (saturation, latency cut).
            if name in metric.workloads and metric.name not in stats:
                stats[metric.name] = _exact(per_layer[metric.name])
        share_sum = sum(per_layer[f"{layer}.share"] for layer in LAYERS)
        if abs(share_sum - 1.0) > 0.02:
            problems.append(f"{name}: layer shares sum to {share_sum:.3f}")
        if per_layer["bench.model_repeat_mismatch"]:
            problems.append(f"{name}: model-clock numbers did not repeat")
        report[name] = {
            "end_to_end": stats, "per_layer": per_layer,
            "attempted": attempted, "failed": failed,
            "model_samples": samples, "top_spans": traced["top_spans"],
        }

    trace_path = trace_out or os.path.join(OUT_DIR, "trace.json")
    with open(trace_path, "w") as handle:
        json.dump({"traceEvents": trace_events}, handle)
    _print_report(report, seed, repeats, trace_path)
    document = {"schema": 1, "seed": seed, "repeats": repeats, "scale": scale,
                "calib_ref_s": CALIB_REF_S, "workloads": report}
    if out:
        with open(out, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
    _check_manifest(report, problems)
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    return 1 if problems else 0


def _check_manifest(report: Dict[str, Dict], problems: List[str]) -> None:
    """Every name BENCHMARK.json lists must have been measured."""
    spec = manifest()
    for name in [w["name"] for w in spec["workloads"]]:
        if name not in report:
            problems.append(f"workload {name} in BENCHMARK.json did not run")
            continue
        have = set(report[name]["end_to_end"]) | set(report[name]["per_layer"])
        for metric in spec["end_to_end"] + spec["per_layer"]:
            if metric["name"] not in have:
                problems.append(f"{name}: {metric['name']} is in "
                                f"BENCHMARK.json but was not measured")


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if value == int(value) and abs(value) < 1e9:
        return f"{int(value)}"
    return f"{value:.5g}"


def _print_report(report: Dict[str, Dict], seed: int, repeats: int,
                  trace_path: str) -> None:
    print(f"benchmarks.lab  seed={seed}  repeats={repeats} (interleaved)  "
          f"host clock = wall time on the reference host "
          f"(calibration kernel = {CALIB_REF_S * 1e3:.1f} ms)")
    for name, part in report.items():
        print(f"\n== {name}  attempted={part['attempted']} "
              f"failed={part['failed']}  "
              f"model samples={_fmt(part['model_samples'])}")
        print(f"  {'end-to-end metric':<26}{'median':>11} {'unit':<6}"
              f"{'clock':<6}{'better':<7}{'bound':>9}  q1..q3 (n)")
        for metric in catalog.END_TO_END:
            stat = part["end_to_end"].get(metric.name)
            if stat is None:
                continue
            bound = f"{metric.bound * 100:.0f}%"
            if metric.slack:
                bound += f"|{metric.slack:g}"
            print(f"  {metric.name:<26}{_fmt(stat['value']):>11} "
                  f"{metric.unit:<6}{metric.clock:<6}{metric.better:<7}"
                  f"{bound:>9}  {_fmt(stat['q1'])}..{_fmt(stat['q3'])} "
                  f"({stat['n']})")
        print("  per-layer (traced repeat + micro-timings)")
        for metric in catalog.PER_LAYER:
            value = part["per_layer"].get(metric.name)
            print(f"    {metric.name:<34}{_fmt(value):>12} {metric.unit:<6}"
                  f"{metric.clock:<6}{metric.better}")
        print("  most self time: " + ", ".join(
            f"{span} {own * 1e3:.0f}ms/{calls}" for span, calls, _total, own
            in part["top_spans"][:5]))
    print(f"\ntrace written to {trace_path}")


# ------------------------------------------------------------------ agree
def agree(path_a: str, path_b: str) -> int:
    """Per (metric, workload): same / worse / better / unresolved."""
    with open(path_a) as handle:
        a = json.load(handle)["workloads"]
    with open(path_b) as handle:
        b = json.load(handle)["workloads"]
    bad = 0
    print(f"{'workload':<18}{'metric':<26}{'A':>11}{'B':>11}  verdict")
    for name in catalog.ALL_WORKLOADS:
        for metric in catalog.END_TO_END:
            if name not in metric.workloads:
                continue
            sa = a[name]["end_to_end"][metric.name]
            sb = b[name]["end_to_end"][metric.name]
            word = verdict(metric, sa, sb)
            bad += word in ("worse", "unresolved")
            print(f"{name:<18}{metric.name:<26}{_fmt(sa['value']):>11}"
                  f"{_fmt(sb['value']):>11}  {word}")
    return 1 if bad else 0


def verdict(metric: catalog.Metric, a: Dict, b: Dict) -> str:
    allowed = max(metric.bound * abs(a["value"]), metric.slack)
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"])
    if spread > allowed:
        return "unresolved"
    worse_by = b["value"] - a["value"]
    if metric.better == "higher":
        worse_by = -worse_by
    if worse_by > allowed:
        return "worse"
    if -worse_by > allowed:
        return "better"
    return "same"


# ------------------------------------------------------------------- main
def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.lab", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", help="run one workload for the driver")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full report as JSON")
    parser.add_argument("--trace-out", help="Chrome trace_event file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets, two repeats: checks names, not speed")
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        from .child import main as child_main

        return child_main(args.child)
    if args.agree:
        return agree(*args.agree)
    scale = SMOKE_SCALE if args.smoke else 1.0
    try:
        if args.workload:
            return run_for_driver(args.workload, args.seed, args.seconds,
                                  bool(args.trace), scale, args.trace_out)
        return run_full(args.seed, 2 if args.smoke else FULL_REPEATS, scale,
                        args.out, args.trace_out)
    except (LabError, subprocess.TimeoutExpired) as exc:
        print(f"benchmarks.lab: {exc}", file=sys.stderr)
        return 1
