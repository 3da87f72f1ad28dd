"""Fuzzing sessions: budgets, corpus replay, telemetry, artifacts.

:func:`run_fuzz` drives the generator -> differential executor ->
shrinker pipeline under a case and/or wall-clock budget, counting
progress into a :class:`~repro.telemetry.hooks.TelemetryHub` (counters
``fuzz.cases``, ``fuzz.packets``, ``fuzz.failures``,
``fuzz.shrink_steps``) so fuzz throughput is observable like any other
dataplane metric.  Failures are shrunk automatically and written to an
artifact directory as a JSON seed + pytest repro.

:func:`replay_corpus` deterministically re-runs the committed seed
corpus (``tests/corpus/*.json``); the tier-1 suite calls it so every
checked-in repro stays green.
"""

from __future__ import annotations

import glob
import os
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..faults import FaultPlan, FaultSpec
from ..telemetry.hooks import NULL_HUB, TelemetryHub
from .cases import FuzzCase, ProfileTweak
from .differential import FUZZ_BURSTS, CaseOutcome, run_case, run_fault_case
from .generator import CaseGenerator
from .shrinker import ShrinkResult, shrink_case, write_repro

__all__ = ["FuzzFailure", "FuzzReport", "run_fuzz", "replay_corpus"]


@dataclass
class FuzzFailure:
    """One failing case, before and after shrinking."""

    index: int
    outcome: CaseOutcome
    shrunk: Optional[ShrinkResult] = None
    json_path: str = ""
    test_path: str = ""


@dataclass
class FuzzReport:
    """Summary of a fuzzing session."""

    cases: int = 0
    packets: int = 0
    duration_s: float = 0.0
    seed: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def cases_per_s(self) -> float:
        return self.cases / self.duration_s if self.duration_s > 0 else 0.0


def run_fuzz(
    cases: int = 500,
    seed: int = 0,
    max_seconds: Optional[float] = None,
    include_des: bool = True,
    packets_per_case: int = 16,
    max_nfs: int = 5,
    inject: Sequence[str] = (),
    telemetry: TelemetryHub = NULL_HUB,
    out_dir: Optional[str] = None,
    stop_after: int = 3,
    shrink: bool = True,
    log: Optional[Callable[[str], None]] = None,
    instances: int = 1,
    faults: Sequence[str] = (),
    audit_profiles: bool = False,
) -> FuzzReport:
    """Run a seeded fuzzing session under a case/time budget.

    ``instances > 1`` fuzzes the §7 scale-out axis: every case runs all
    three planes with each NF uniformly replicated, the sequential
    oracle partitioned into per-instance banks (see
    :func:`repro.check.differential.run_case`).

    ``faults`` (fault kinds, e.g. ``("crash", "hang")``) switches to
    fault-mode fuzzing: each case runs on the DES plane only, with one
    deterministically derived fault per case (kind, target NF and
    trigger packet all rotate with the case index), and the oracle is
    the conservation invariant of
    :func:`repro.check.differential.run_fault_case` instead of byte
    equivalence.  Failures are not shrunk -- the fault schedule is part
    of the case, and dropping packets would shift every trigger.

    ``audit_profiles`` arms the fourth oracle: every case records the
    NFs' field accesses on the sequential plane and cross-checks the
    inferred footprints against the declared action table (failure kind
    ``profile-violation``).  Ignored in fault mode -- injected crashes
    drop packets through the NF scope and would be misattributed as
    undeclared drops.
    """
    tweaks = [ProfileTweak.parse(spec) for spec in inject]
    generator = CaseGenerator(
        seed=seed, max_nfs=max_nfs, packets_per_case=packets_per_case,
        tweaks=tweaks,
    )
    report = FuzzReport(seed=seed)
    started = time.monotonic()

    for index in range(cases):
        if max_seconds is not None and time.monotonic() - started >= max_seconds:
            if log:
                log(f"time budget of {max_seconds:.0f}s reached "
                    f"after {report.cases} cases")
            break
        case = generator.generate(index)
        burst = FUZZ_BURSTS[index % len(FUZZ_BURSTS)]
        if faults:
            plan = _fault_plan_for(case, index, faults, packets_per_case)
            outcome = run_fault_case(case, plan, telemetry=telemetry,
                                     instances=instances)
        else:
            outcome = run_case(case, include_des=include_des,
                               telemetry=telemetry, instances=instances,
                               audit_profiles=audit_profiles, burst=burst)
        telemetry.inc("fuzz.cases")
        report.cases += 1
        report.packets += outcome.packets
        if outcome.ok:
            continue

        failure = FuzzFailure(index=index, outcome=outcome)
        if log:
            log(f"case {index}: {outcome.kind} -- {outcome.detail}")
        if shrink and not faults:
            failure.shrunk = shrink_case(
                case, include_des=include_des, telemetry=telemetry,
                instances=instances, audit_profiles=audit_profiles,
                burst=burst)
            if log:
                log(f"case {index}: {failure.shrunk.summary()}")
            if out_dir:
                failure.json_path, failure.test_path = write_repro(
                    failure.shrunk, out_dir, include_des=include_des,
                    instances=instances)
                if log:
                    log(f"case {index}: repro written to {failure.json_path} "
                        f"and {failure.test_path}")
        report.failures.append(failure)
        if len(report.failures) >= stop_after:
            if log:
                log(f"stopping after {stop_after} failures")
            break

    report.duration_s = time.monotonic() - started
    telemetry.gauge("fuzz.cases_per_s", report.cases_per_s)
    return report


def _fault_plan_for(
    case: FuzzCase,
    index: int,
    faults: Sequence[str],
    packets_per_case: int,
) -> FaultPlan:
    """One deterministic fault per case, derived from the case index.

    Kind, victim NF and trigger packet all rotate at different strides
    so a few hundred cases cover the (kind x target x timing) grid
    without any RNG state shared with the case generator.
    """
    kind = faults[index % len(faults)]
    names = sorted(case.kinds())
    target = names[(index // len(faults)) % len(names)]
    at_packet = 1 + (index // (len(faults) * len(names))) % max(
        packets_per_case, 1)
    return FaultPlan([FaultSpec.parse(f"{kind}:{target}:pkt={at_packet}")])


def replay_corpus(
    corpus_dir: str,
    include_des: bool = True,
    telemetry: TelemetryHub = NULL_HUB,
    instances: int = 1,
    audit_profiles: bool = False,
) -> List[Tuple[str, CaseOutcome]]:
    """Re-run every ``*.json`` seed in ``corpus_dir`` (sorted, stable),
    the functional plane's burst cycling by position as in a session."""
    results: List[Tuple[str, CaseOutcome]] = []
    paths = sorted(glob.glob(os.path.join(corpus_dir, "*.json")))
    for index, path in enumerate(paths):
        case = FuzzCase.load(path)
        outcome = run_case(case, include_des=include_des, telemetry=telemetry,
                           instances=instances, audit_profiles=audit_profiles,
                           burst=FUZZ_BURSTS[index % len(FUZZ_BURSTS)])
        telemetry.inc("fuzz.cases")
        results.append((path, outcome))
    return results
