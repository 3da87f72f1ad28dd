"""Sensitivity census of the model clock: which ``SimParams`` field moves
which pinned value.

For each scalar field of :class:`repro.sim.SimParams`, one subprocess
raises the field's default by 10% (an integer doubles, and 0 becomes 1)
and runs every ``REGISTRY`` scenario (``run_bench``).  The raised
default reaches ``DEFAULT_PARAMS``, ``VM_PARAMS`` and every
``SimParams()`` a scenario builds, except where that preset or scenario
sets the field itself.  Each perturbed report is diffed with
``compare_reports`` against the pinned
``benchmarks/results/baseline.json``, which the tier-1 model-clock test
holds equal to an unperturbed run.  The census records, per field, how
many values moved and the largest relative change, split into the
paper's entries (``PAPER_SPECS``) and the rest, plus the scenarios
touched.  A moved value with no relative change -- one that leaves 0, or
a string, flag or digest -- is counted as ``categorical`` as well.

A field is **dead** when it moves no pinned value at all.  The census
exits 1 on any dead field that is not in ``EXEMPT``, on an exemption
that names no field, and on a non-scalar field without an exemption:
a knob no pinned value reads is one the fidelity fit could never
explain.  The model clock is deterministic, so the document re-derives
byte for byte.  Run from the repository root (about 3.5 minutes; the
runs go ``JOBS`` at a time)::

    PYTHONPATH=src python -m tests.support.census
    PYTHONPATH=src python -m tests.support.census \\
        --out /tmp/sensitivity.json \\
        --check benchmarks/results/sensitivity.json

The first writes ``benchmarks/results/sensitivity.json``; the second
writes a fresh copy elsewhere and compares it with the committed one
using ``==``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
RESULTS = os.path.join(ROOT, "benchmarks", "results")
SENSITIVITY = os.path.join(RESULTS, "sensitivity.json")
BASELINE = os.path.join(RESULTS, "baseline.json")

SCHEMA = "repro.census/1"

#: Perturbed runs at a time: each is a whole-registry subprocess.
JOBS = 2

#: Fields the dead-knob gate waives, each with why and who reads it.
EXEMPT: Dict[str, Dict[str, str]] = {
    "latency_load_fraction": {
        "reason": "an input, not a cost: the load at which latency is "
                  "reported",
        "reader": "repro.eval.harness (load_fraction=None)",
    },
    "nf_service_us": {
        "reason": "the fit's per-kind vector, not a scalar; each kind is "
                  "read by the experiments that run it",
        "reader": "SimParams.nf_service",
    },
    "ring_retry_limit": {
        "reason": "default-only: 0 is rte_ring's fail-fast behaviour, and "
                  "no delivery retries unless a run raises it",
        "reader": "crash_hang_retry2 (ring_retry_limit=2), "
                  "tests/unit/test_ring_retry.py",
    },
}


def raised(value):
    """The census step: +10%, or an integer doubled (0 becomes 1)."""
    if isinstance(value, bool):
        raise TypeError("a boolean field has no census step")
    if isinstance(value, int):
        return 2 * value if value else 1
    return value * 1.1


def scalar_fields() -> Dict[str, object]:
    """Every scalar ``SimParams`` field with its default, in field order."""
    from repro.sim import SimParams

    return {f.name: f.default for f in dataclasses.fields(SimParams)
            if f.default is not dataclasses.MISSING
            and isinstance(f.default, (int, float))}


def set_default(name: str, value) -> None:
    """Make ``value`` the default of field ``name`` in this process: in
    the generated ``__init__``, on ``DEFAULT_PARAMS`` and on ``VM_PARAMS``
    where it keeps the old default.  Call before any scenario runs."""
    from repro.sim import params as module
    from repro.sim.params import SimParams

    fields = [f.name for f in dataclasses.fields(SimParams)]
    defaults = list(SimParams.__init__.__defaults__)
    if len(defaults) != len(fields):
        raise RuntimeError("SimParams.__init__ defaults do not line up "
                           "with its fields")
    index = fields.index(name)
    old = defaults[index]
    defaults[index] = value
    SimParams.__init__.__defaults__ = tuple(defaults)
    for preset in (module.DEFAULT_PARAMS, module.VM_PARAMS):
        if getattr(preset, name) == old:
            setattr(preset, name, value)


def _child(name: str, out: str) -> None:
    """One run of the registry with field ``name`` raised."""
    set_default(name, raised(scalar_fields()[name]))
    from repro.bench import run_bench

    run_bench().save(out)


def _run(name: str, workdir: str) -> str:
    out = os.path.join(workdir, f"{name}.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    command = [sys.executable, "-m", "tests.support.census",
               "--child", name, "--out", out]
    subprocess.run(command, cwd=ROOT, env=env, check=True)
    return out


def _relative(old, new) -> Optional[float]:
    """``|new - old| / |old|``, or None when there is none (a string,
    flag or digest, a value that leaves 0, or one side absent)."""
    def number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    if number(old) and number(new) and old != 0:
        return abs(new - old) / abs(old)
    return None


def census() -> Dict:
    """Run the census and return its document."""
    from repro.bench import PAPER_SPECS, BenchReport, compare_reports

    defaults = scalar_fields()
    paper = {spec.name for spec in PAPER_SPECS}
    base = BenchReport.load(BASELINE)
    with tempfile.TemporaryDirectory(prefix="census-") as workdir:
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            paths = dict(zip(defaults, pool.map(lambda n: _run(n, workdir),
                                                defaults)))
        fields: Dict[str, Dict] = {}
        for name, default in defaults.items():
            cmp = compare_reports(base, BenchReport.load(paths[name]))
            split = {side: {"moved": 0, "max_rel": 0.0, "categorical": 0}
                     for side in ("paper", "other")}
            scenarios = set()
            for diff in cmp.differences:
                side = split["paper" if diff.scenario in paper else "other"]
                side["moved"] += 1
                change = _relative(diff.old, diff.new)
                if change is None:
                    side["categorical"] += 1
                else:
                    side["max_rel"] = max(side["max_rel"], change)
                scenarios.add(diff.scenario)
            for side in split.values():
                side["max_rel"] = float(f"{side['max_rel']:.4g}")
            fields[name] = {
                "default": default,
                "raised": raised(default),
                **split,
                "scenarios": sorted(scenarios),
                "dead": not cmp.differences,
            }
            print(f"{name:28s} paper {split['paper']['moved']:4d} "
                  f"other {split['other']['moved']:4d}")
    return {
        "schema": SCHEMA,
        "step": "default x 1.1; an integer doubles and 0 becomes 1",
        "values": compare_reports(base, base).compared,
        "paper_scenarios": sorted(paper),
        "fields": fields,
        "exempt": EXEMPT,
    }


def problems(document: Dict) -> List[str]:
    """Dead fields without an exemption, stale exemptions, and non-scalar
    fields the census cannot step."""
    from repro.sim import SimParams

    every = {f.name for f in dataclasses.fields(SimParams)}
    found = []
    for name, entry in document["fields"].items():
        if entry["dead"] and name not in EXEMPT:
            found.append(f"dead knob: {name} moves no pinned value")
    for name in EXEMPT:
        if name not in every:
            found.append(f"exemption for {name}, which is no SimParams field")
    for name in sorted(every - set(document["fields"]) - set(EXEMPT)):
        found.append(f"{name} is not a scalar and has no exemption")
    return found


def render(document: Dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=SENSITIVITY,
                        help="where to write the census document")
    parser.add_argument("--check", metavar="PATH",
                        help="also compare with this committed document; "
                             "exit 1 if they differ")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        _child(args.child, args.out)
        return 0
    document = census()
    status = 0
    for problem in problems(document):
        print(problem, file=sys.stderr)
        status = 1
    if args.check:
        with open(args.check) as handle:
            committed = json.load(handle)
    with open(args.out, "w") as handle:
        handle.write(render(document))
    print(f"wrote {args.out}")
    if args.check:
        fresh = json.loads(render(document))
        if committed != fresh:
            old, new = committed.get("fields", {}), fresh["fields"]
            stale = sorted(name for name in set(old) | set(new)
                           if old.get(name) != new.get(name))
            print(f"{args.check} is stale; fields that differ: "
                  f"{', '.join(stale) or '(top level)'}", file=sys.stderr)
            status = 1
        else:
            print(f"{args.check} re-derived with ==")
    return status


if __name__ == "__main__":
    sys.exit(main())
