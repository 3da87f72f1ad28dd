"""Delta-debugging shrinker: minimal repro from a failing fuzz case.

Three phases, each preserving the original failure *kind* (so the
shrinker cannot wander onto a different bug):

1. **NF minimization** -- greedily drop policy instances; order rules
   are restricted through their transitive closure so the surviving
   NFs keep their relative constraints.
2. **Packet minimization** -- ddmin-style halving over the packet list,
   then a greedy single-packet sweep.
3. **Packet simplification** -- per surviving packet, try zeroing the
   payload, shrinking to minimum size, and clearing fragment bits.

The result is written out as a JSON repro seed plus a ready-to-commit
pytest file that replays it through :func:`repro.check.run_case`.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace
from typing import Callable, Tuple

from ..telemetry.hooks import NULL_HUB, TelemetryHub
from .cases import FuzzCase, PacketSpec
from .differential import CaseOutcome, run_case

__all__ = ["ShrinkResult", "shrink_case", "write_repro"]


@dataclass
class ShrinkResult:
    """A minimized failing case plus how we got there."""

    case: FuzzCase
    outcome: CaseOutcome
    original_nfs: int
    original_packets: int
    steps: int = 0

    @property
    def nfs(self) -> int:
        return len(self.case.instances)

    @property
    def packets(self) -> int:
        return len(self.case.packets)

    def summary(self) -> str:
        return (f"shrunk {self.original_nfs}->{self.nfs} NFs, "
                f"{self.original_packets}->{self.packets} packets "
                f"in {self.steps} runs ({self.outcome.kind})")


#: Probe runs one shrink may spend.
_MAX_SHRINK_RUNS = 400


def shrink_case(
    case: FuzzCase,
    include_des: bool = True,
    telemetry: TelemetryHub = NULL_HUB,
    instances: int = 1,
    audit_profiles: bool = False,
    burst: int = 1,
) -> ShrinkResult:
    """Minimize ``case`` while it keeps failing with the same kind, at
    the functional burst size it failed with."""
    baseline = run_case(case, include_des=include_des, instances=instances,
                        audit_profiles=audit_profiles, burst=burst)
    if baseline.ok:
        raise ValueError("shrink_case needs a failing case")
    kind = baseline.kind
    # The DES plane triples the cost of every probe; only keep it when
    # the failure is DES-specific.
    probe_des = include_des and (
        kind.startswith("des-") or kind == "meta-mismatch")
    # Profile violations surface before the dataplane comparison, so the
    # probes only need the audit armed when that is the kind we chase.
    probe_audit = audit_profiles and kind == "profile-violation"

    state = {"runs": 0, "best": case, "best_outcome": baseline}

    def still_fails(candidate: FuzzCase) -> bool:
        if state["runs"] >= _MAX_SHRINK_RUNS:
            return False
        state["runs"] += 1
        telemetry.inc("fuzz.shrink_steps")
        try:
            outcome = run_case(candidate, include_des=probe_des,
                               instances=instances,
                               audit_profiles=probe_audit, burst=burst)
        except Exception:
            return False
        if not outcome.ok and outcome.kind == kind:
            state["best"], state["best_outcome"] = candidate, outcome
            return True
        return False

    current = case
    current = _shrink_nfs(current, still_fails)
    current = _shrink_packets(current, still_fails)
    current = _simplify_packets(current, still_fails)

    final_case = replace(
        state["best"], case_id=f"{case.case_id}-min") \
        if state["best"] is not case else case
    final = run_case(final_case, include_des=include_des, instances=instances,
                     audit_profiles=audit_profiles, burst=burst)
    if final.ok or final.kind != kind:  # paranoid re-check with full planes
        final_case = replace(case, case_id=f"{case.case_id}-min")
        final = run_case(final_case, include_des=include_des,
                         instances=instances,
                         audit_profiles=audit_profiles, burst=burst)
    return ShrinkResult(
        case=final_case,
        outcome=final,
        original_nfs=len(case.instances),
        original_packets=len(case.packets),
        steps=state["runs"],
    )


def _shrink_nfs(case: FuzzCase, still_fails: Callable[[FuzzCase], bool]) -> FuzzCase:
    changed = True
    while changed and len(case.instances) > 1:
        changed = False
        for name, _ in list(case.instances):
            if len(case.instances) <= 1:
                break
            survivors = [n for n, _ in case.instances if n != name]
            candidate = case.restricted_to(survivors)
            if still_fails(candidate):
                case = candidate
                changed = True
                break
    return case


def _shrink_packets(
    case: FuzzCase, still_fails: Callable[[FuzzCase], bool]
) -> FuzzCase:
    # ddmin halving: try keeping ever-smaller slices.
    granularity = 2
    packets = list(case.packets)
    while len(packets) >= 2:
        chunk = max(1, len(packets) // granularity)
        reduced = False
        for start in range(0, len(packets), chunk):
            complement = packets[:start] + packets[start + chunk:]
            if not complement:
                continue
            candidate = case.with_packets(complement)
            if still_fails(candidate):
                packets = complement
                case = candidate
                granularity = max(2, granularity - 1)
                reduced = True
                break
        if not reduced:
            if chunk <= 1:
                break
            granularity = min(len(packets), granularity * 2)
    # Greedy single-packet sweep mops up what halving missed.
    changed = True
    while changed and len(packets) > 1:
        changed = False
        for i in range(len(packets)):
            complement = packets[:i] + packets[i + 1:]
            candidate = case.with_packets(complement)
            if still_fails(candidate):
                packets = complement
                case = candidate
                changed = True
                break
    return case


def _simplify_packets(
    case: FuzzCase, still_fails: Callable[[FuzzCase], bool]
) -> FuzzCase:
    for index in range(len(case.packets)):
        for variant in _packet_variants(case.packets[index]):
            packets = list(case.packets)
            packets[index] = variant
            candidate = case.with_packets(packets)
            if still_fails(candidate):
                case = candidate
    return case


def _packet_variants(spec: PacketSpec):
    if spec.payload:
        yield replace(spec, payload=b"")
    if spec.size > 64:
        yield replace(spec, size=64)
    if spec.frag_mf or spec.frag_offset:
        yield replace(spec, frag_mf=False, frag_offset=0)
    if spec.tcp_flags is not None:
        yield replace(spec, tcp_flags=None)


# ---------------------------------------------------------------- emission
_TEST_TEMPLATE = '''"""Auto-generated regression test (shrunk by `python -m repro fuzz`).

Failure kind : {kind}
Detail       : {detail}
Graph        : {graph}

Commit this file under tests/ (and the JSON seed under tests/corpus/ if
you want the corpus replayer to pick it up); see docs/TESTING.md.
"""

from repro.check import FuzzCase, run_case

CASE_JSON = r"""
{case_json}
"""


def test_repro_{digest}():
    outcome = run_case(FuzzCase.from_json(CASE_JSON), include_des={include_des},
                       instances={instances}, audit_profiles={audit_profiles},
                       burst={burst})
    assert outcome.ok, f"{{outcome.kind}}: {{outcome.detail}}"
'''


def write_repro(
    result: ShrinkResult,
    out_dir: str,
    include_des: bool = True,
    instances: int = 1,
) -> Tuple[str, str]:
    """Write the JSON seed + pytest repro; returns both paths."""
    os.makedirs(out_dir, exist_ok=True)
    case_json = result.case.to_json()
    digest = hashlib.sha1(case_json.encode()).hexdigest()[:10]
    json_path = os.path.join(out_dir, f"repro-{digest}.json")
    test_path = os.path.join(out_dir, f"test_repro_{digest}.py")
    with open(json_path, "w") as handle:
        handle.write(case_json + "\n")
    with open(test_path, "w") as handle:
        handle.write(_TEST_TEMPLATE.format(
            kind=result.outcome.kind,
            detail=result.outcome.detail.replace('"""', "'''"),
            graph=result.outcome.graph_desc,
            case_json=case_json,
            digest=digest,
            include_des=include_des,
            instances=instances,
            audit_profiles=result.outcome.kind == "profile-violation",
            burst=result.outcome.burst,
        ))
    return json_path, test_path
