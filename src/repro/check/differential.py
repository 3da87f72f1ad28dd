"""Differential execution: one case, three dataplanes, one verdict.

``run_case`` pushes the same packet stream through

1. :class:`~repro.dataplane.functional.SequentialReference` over the
   *policy-equivalent sequential chain* (computed here, from the policy
   rules -- NOT from the compiled graph, so compiler bugs cannot vouch
   for themselves),
2. :class:`~repro.dataplane.functional.FunctionalDataplane` over the
   compiled parallel graph, fed ``burst`` packets per ``process_many``
   (the fuzz session cycles :data:`FUZZ_BURSTS` by case index, so the
   stage-major walk is fuzzed at a burst of one, a ragged burst and a
   full one), and
3. (optionally) the timed DES dataplane
   (:class:`~repro.dataplane.server.NFPServer`), checking the emitted
   bytes *and* the MID/version metadata word.

and reports the first divergence as a typed :class:`CaseOutcome`.

The reference linearization
---------------------------
A policy under-constrains the chain: free pairs have no order rule.  The
compiler commits to specific choices (declaration order for mutually
non-parallelizable free pairs, Algorithm 1's direction otherwise), so the
reference must replay the *same* commitments over the *declared*
profiles, while executing truly sequentially.  :func:`reference_order`
rebuilds that linearization from the policy + action table alone:

* Order-rule transitive closure edges (except pairs that also carry a
  Priority rule -- the priority winner must land last, per §3's "the NF
  with the back order is assigned a higher priority"),
* Position pins (first/last against every other NF),
* ``low -> high`` for every Priority rule,
* for free pairs: the parallelizable direction if only one direction is
  parallelizable, declaration order when neither is (mirroring the
  compiler's warning path),

then a deterministic topological sort (ties by declaration order).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.action_table import ActionTable
from ..core.dependency import identify_parallelism
from ..core.graph import ORIGINAL_VERSION
from ..core.orchestrator import Orchestrator
from ..core.policy import Policy, Position
from ..dataplane.functional import (
    FunctionalDataplane,
    SequentialBank,
    SequentialReference,
)
from ..dataplane.server import NFPServer
from ..faults import FaultInjector, FaultPlan
from ..net.recorder import AccessRecorder
from ..nfs.base import create_nf
from ..profiles import ProfileAuditor, hard_findings, infer_profiles
from ..sim import DEFAULT_PARAMS, Environment
from ..telemetry.hooks import NULL_HUB, TelemetryHub
from ..traffic.generator import feed_list
from .cases import FuzzCase

__all__ = ["CaseOutcome", "FUZZ_BURSTS", "reference_order", "run_case",
           "run_fault_case"]

#: Functional-plane burst sizes a fuzz session cycles through by case
#: index: one packet, a burst that leaves a ragged tail, a DPDK burst.
FUZZ_BURSTS = (1, 7, 32)

#: Deterministic inter-arrival gap for the DES plane, far below any
#: graph's capacity so ring overflow (``server.lost``) cannot occur and
#: NF arrival order equals injection order.
DES_GAP_US = 25.0


@dataclass
class CaseOutcome:
    """Result of one differential run."""

    ok: bool
    kind: str  # "ok", "byte-mismatch", "drop-mismatch", "des-*", ...
    detail: str = ""
    case: Optional[FuzzCase] = None
    mismatched_idents: List[int] = field(default_factory=list)
    packets: int = 0
    matched: int = 0
    agreed_drops: int = 0
    graph_desc: str = ""
    reference: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: uniform §7 instance count the case ran with (1 = unscaled).
    instances: int = 1
    #: packets per functional ``process_many`` call the case ran with.
    burst: int = 1

    def __str__(self) -> str:
        status = "OK" if self.ok else f"FAIL({self.kind})"
        return (f"{status} packets={self.packets} matched={self.matched} "
                f"drops={self.agreed_drops} graph=[{self.graph_desc}] "
                f"{self.detail}")


def _transitive_closure(edges: Set[Tuple[str, str]]) -> Set[Tuple[str, str]]:
    closure = set(edges)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and a != d and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


def _reaches(edges: Set[Tuple[str, str]], start: str, goal: str) -> bool:
    stack, seen = [start], set()
    succs: Dict[str, List[str]] = {}
    for a, b in edges:
        succs.setdefault(a, []).append(b)
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        if node in seen:
            continue
        seen.add(node)
        stack.extend(succs.get(node, ()))
    return False


def reference_order(policy: Policy, action_table: ActionTable) -> List[str]:
    """The sequential linearization the compiled graph must match."""
    names = list(policy.instances)
    decl = {name: i for i, name in enumerate(names)}
    profiles = {n: action_table.fetch(policy.kind_of(n)) for n in names}

    closure = _transitive_closure(
        {(r.before, r.after) for r in policy.order_rules()}
    )
    priority_pairs = {(r.high, r.low) for r in policy.priority_rules()}
    prioritised = priority_pairs | {(low, high) for high, low in priority_pairs}
    pins = {r.nf: r.position for r in policy.position_rules()}

    # Mandatory edges first -- these mirror the compiler's hard
    # constraints exactly, so they are acyclic whenever compilation
    # succeeded.
    edges: Set[Tuple[str, str]] = set()
    for a, b in closure:
        if (a, b) not in prioritised:
            edges.add((a, b))
    for nf, where in pins.items():
        for other in names:
            if other != nf:
                edges.add((nf, other) if where is Position.FIRST else (other, nf))

    related = closure | {(b, a) for a, b in closure} | prioritised
    soft: List[Tuple[str, str]] = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if (a, b) in related or a in pins or b in pins:
                continue
            forward = identify_parallelism(profiles[a], profiles[b])
            if forward.parallelizable:
                soft.append((a, b))
                continue
            backward = identify_parallelism(profiles[b], profiles[a])
            if backward.parallelizable:
                soft.append((b, a))
            else:
                # Compiler sequences mutually conflicting free pairs in
                # declaration order (and warns); mirror that choice.
                edges.add((a, b))

    # Soft edges: preferred directions that may legitimately conflict
    # with each other (a one-direction-parallelizable pair always puts a
    # pure reader on the flexible side, so dropping a soft edge cannot
    # change output bytes).  Priority semantics first -- the
    # high-priority NF's effect must land last, i.e. the equivalent
    # chain runs low first.  (The generator only emits
    # Priority(high > low) when (low, high) is parallelizable, which is
    # exactly when this linearization is sound.)
    soft = [(low, high) for high, low in sorted(priority_pairs)] + soft
    for a, b in soft:
        if not _reaches(edges, b, a):
            edges.add((a, b))

    # Kahn's algorithm; ties resolved by declaration order.
    indeg = {n: 0 for n in names}
    succs: Dict[str, List[str]] = {n: [] for n in names}
    for a, b in edges:
        succs[a].append(b)
        indeg[b] += 1
    ready = sorted((n for n in names if indeg[n] == 0), key=decl.__getitem__)
    order: List[str] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for nxt in succs[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
        ready.sort(key=decl.__getitem__)
    if len(order) != len(names):
        raise ValueError("cycle in reference linearization")
    return order


def _first_divergence(
    case: FuzzCase,
    got: Dict[int, Optional[bytes]],
    want: Dict[int, Optional[bytes]],
    kind_prefix: str = "",
) -> Optional[Tuple[str, str, List[int]]]:
    """Compare two per-ident output maps; None = no divergence."""
    mismatched: List[int] = []
    first_kind = ""
    first_detail = ""
    for spec in case.packets:
        a = got.get(spec.ident)
        b = want.get(spec.ident)
        if a == b:
            continue
        mismatched.append(spec.ident)
        if first_kind:
            continue
        if (a is None) != (b is None):
            first_kind = kind_prefix + "drop-mismatch"
            side = "parallel" if a is None else "sequential"
            first_detail = f"packet ident={spec.ident} dropped only by the {side} plane"
        else:
            first_kind = kind_prefix + "byte-mismatch"
            diff = next(
                (i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)),
            )
            first_detail = (f"packet ident={spec.ident} differs at byte {diff} "
                            f"(lengths {len(a)}/{len(b)})")
    if not mismatched:
        return None
    return first_kind, first_detail, mismatched


def _run_des(
    case: FuzzCase,
    orch: Orchestrator,
    policy: Policy,
    telemetry: TelemetryHub = NULL_HUB,
    instances: int = 1,
) -> Tuple[Dict[int, Optional[bytes]], int, Optional[str]]:
    """Run the timed dataplane; returns ``(outputs, lost, meta_error)``."""
    deployed = orch.deploy(policy, scale=instances if instances > 1 else None)
    env = Environment(track_stats=telemetry.enabled)
    server = NFPServer(env, DEFAULT_PARAMS, telemetry=telemetry)
    server.keep_packets = True
    server.deploy(deployed)
    packets = case.build_packets()
    # The emitted version 1 is the injected object: key outputs by it, not
    # by the output's IP ident (a codec inside a tunnel leaves the
    # decapsulated frame non-IPv4 on every plane alike).
    idents = {pkt.uid: spec.ident for pkt, spec in zip(packets, case.packets)}

    feed_list(env, server.inject, packets, DES_GAP_US)
    env.run()

    meta_error: Optional[str] = None
    outputs: Dict[int, Optional[bytes]] = {spec.ident: None for spec in case.packets}
    for pkt in server.emitted_packets:
        ident = idents[pkt.uid]
        outputs[ident] = bytes(pkt.buf)
        meta = pkt.meta
        if meta is None:
            meta_error = meta_error or f"ident={ident} emitted without metadata"
        elif meta.version != ORIGINAL_VERSION or meta.mid != deployed.mid:
            meta_error = meta_error or (
                f"ident={ident} emitted with version={meta.version} "
                f"mid={meta.mid} (want version={ORIGINAL_VERSION} "
                f"mid={deployed.mid})")
    return outputs, server.lost, meta_error


def run_case(
    case: FuzzCase,
    include_des: bool = True,
    telemetry: TelemetryHub = NULL_HUB,
    instances: int = 1,
    audit_profiles: bool = False,
    burst: int = 1,
) -> CaseOutcome:
    """Run one differential case end to end.

    The functional plane takes the packets ``burst`` at a time; the
    sequential oracle always takes them one at a time.

    ``instances > 1`` runs the §7 scale-out axis: every NF is replicated
    uniformly, and the sequential oracle becomes a
    :class:`~repro.dataplane.functional.SequentialBank` -- N independent
    sequential chains behind the same RSS split -- because replication
    partitions cross-flow NF state (NAT port allocation order, the VPN
    sequence counter), so a single shared chain is *not* byte-equivalent
    to a scaled deployment by construction.

    ``audit_profiles`` arms the fourth oracle: the sequential-reference
    pass runs with an :class:`AccessRecorder` attached, the observed
    footprints are audited against this case's (possibly tweaked)
    action table, and any undeclared access fails the case as
    ``profile-violation`` with the JSON findings in ``detail``.  Do not
    combine with fault injection: injected crashes surface as NF drops
    the declarations never promised.
    """
    if instances < 1:
        raise ValueError("instances must be >= 1")
    if burst < 1:
        raise ValueError("burst must be >= 1")
    started = time.monotonic()

    def finish(outcome: CaseOutcome) -> CaseOutcome:
        outcome.elapsed_s = time.monotonic() - started
        telemetry.inc("fuzz.packets", outcome.packets)
        if not outcome.ok:
            telemetry.inc("fuzz.failures")
            telemetry.inc(f"fuzz.failures.{outcome.kind}")
        return outcome

    idents = [spec.ident for spec in case.packets]
    if len(set(idents)) != len(idents):
        raise ValueError("packet idents must be unique within a case")
    # Idents are the matching key across all planes and the IPv4 field
    # holding them is 16 bits: a wrapped ident would alias two packets
    # and could mask a real divergence, so refuse it up front.
    bad = [i for i in idents if not 0 <= i <= 0xFFFF]
    if bad:
        raise ValueError(
            f"packet idents outside the 16-bit identification field: "
            f"{bad[:4]}{'...' if len(bad) > 4 else ''} -- runs past 65,535 "
            "packets must re-key cases, not wrap idents"
        )

    policy = case.policy()
    table = case.action_table()
    orch = Orchestrator(action_table=table)
    try:
        result = orch.compile(policy)
    except Exception as exc:
        return finish(CaseOutcome(
            ok=False, kind="compile-error", detail=str(exc), case=case,
            packets=len(case.packets)))
    graph = result.graph

    try:
        order = reference_order(policy, table)
    except ValueError as exc:
        return finish(CaseOutcome(
            ok=False, kind="reference-error", detail=str(exc), case=case,
            packets=len(case.packets), graph_desc=graph.describe()))

    kinds = case.kinds()
    if instances == 1:
        sequential = SequentialReference(
            [create_nf(kinds[name], name=f"seq.{name}") for name in order]
        )
    else:
        sequential = SequentialBank(
            lambda k: [create_nf(kinds[name], name=f"seq{k}.{name}")
                       for name in order],
            instances,
        )
    recorder = AccessRecorder() if audit_profiles else None
    seq_out: Dict[int, Optional[bytes]] = {}
    for spec in case.packets:
        pkt = spec.build()
        if recorder is not None:
            pkt.recorder = recorder
        out = sequential.process(pkt)
        seq_out[spec.ident] = None if out is None else bytes(out.buf)

    if recorder is not None:
        findings = hard_findings(
            ProfileAuditor(table).audit(infer_profiles(recorder.events))
        )
        if findings:
            detail = json.dumps(
                [f.to_dict() for f in findings], sort_keys=True
            )
            return finish(CaseOutcome(
                ok=False, kind="profile-violation", detail=detail,
                case=case, packets=len(case.packets),
                graph_desc=graph.describe(), reference=order,
                instances=instances))

    functional = FunctionalDataplane(
        graph, scale=instances if instances > 1 else None)
    func_out: Dict[int, Optional[bytes]] = {}
    for start in range(0, len(case.packets), burst):
        specs = case.packets[start:start + burst]
        outputs = functional.process_many([spec.build() for spec in specs])
        for spec, out in zip(specs, outputs):
            func_out[spec.ident] = None if out is None else bytes(out.buf)

    matched = sum(
        1 for spec in case.packets
        if func_out[spec.ident] == seq_out[spec.ident]
        and func_out[spec.ident] is not None
    )
    agreed_drops = sum(
        1 for spec in case.packets
        if func_out[spec.ident] is None and seq_out[spec.ident] is None
    )
    base = dict(
        case=case, packets=len(case.packets), matched=matched,
        agreed_drops=agreed_drops, graph_desc=graph.describe(),
        reference=order, instances=instances, burst=burst,
    )

    divergence = _first_divergence(case, func_out, seq_out)
    if divergence is not None:
        kind, detail, mismatched = divergence
        return finish(CaseOutcome(
            ok=False, kind=kind, detail=detail,
            mismatched_idents=mismatched, **base))

    if include_des:
        des_out, lost, meta_error = _run_des(
            case, orch, policy, telemetry=telemetry,
            instances=instances)
        if lost:
            return finish(CaseOutcome(
                ok=False, kind="des-loss",
                detail=f"DES dataplane lost {lost} packets to full rings",
                **base))
        if meta_error:
            return finish(CaseOutcome(
                ok=False, kind="meta-mismatch", detail=meta_error, **base))
        divergence = _first_divergence(case, des_out, func_out, "des-")
        if divergence is not None:
            kind, detail, mismatched = divergence
            return finish(CaseOutcome(
                ok=False, kind=kind,
                detail=detail + " (DES vs functional)",
                mismatched_idents=mismatched, **base))

    return finish(CaseOutcome(ok=True, kind="ok", **base))


def run_fault_case(
    case: FuzzCase,
    faults: FaultPlan,
    telemetry: TelemetryHub = NULL_HUB,
    instances: int = 1,
) -> CaseOutcome:
    """Run one case on the DES plane under fault injection.

    Byte equivalence is meaningless when instances crash mid-stream, so
    the oracle here is the **conservation invariant** instead: after the
    environment drains, every injected packet must have been emitted or
    accounted to exactly one drop reason, the mergers' Accumulating
    Tables must be empty, and no per-packet flight state may remain.
    Any residue is a ``conservation-violation`` -- a stranded AT entry,
    a leaked flight record, or a silently vanished packet.
    """
    if instances < 1:
        raise ValueError("instances must be >= 1")
    started = time.monotonic()

    def finish(outcome: CaseOutcome) -> CaseOutcome:
        outcome.elapsed_s = time.monotonic() - started
        telemetry.inc("fuzz.packets", outcome.packets)
        if not outcome.ok:
            telemetry.inc("fuzz.failures")
            telemetry.inc(f"fuzz.failures.{outcome.kind}")
        return outcome

    policy = case.policy()
    orch = Orchestrator(action_table=case.action_table())
    try:
        result = orch.compile(policy)
    except Exception as exc:
        return finish(CaseOutcome(
            ok=False, kind="compile-error", detail=str(exc), case=case,
            packets=len(case.packets)))
    graph = result.graph

    deployed = orch.deploy(policy, scale=instances if instances > 1 else None)
    env = Environment(track_stats=telemetry.enabled)
    injector = FaultInjector(faults, telemetry=telemetry)
    server = NFPServer(env, DEFAULT_PARAMS, telemetry=telemetry,
                       injector=injector)
    server.deploy(deployed)
    packets = case.build_packets()

    feed_list(env, server.inject, packets, DES_GAP_US)
    env.run()

    report = server.conservation_report()
    base = dict(
        case=case, packets=len(case.packets),
        matched=int(report["emitted"]), graph_desc=graph.describe(),
        instances=instances,
    )
    problems = []
    if report["unaccounted"]:
        problems.append(f"{report['unaccounted']} packets unaccounted "
                        f"(injected={report['injected']} "
                        f"emitted={report['emitted']} drops={report['drops']})")
    if report["at_depth"]:
        problems.append(f"{report['at_depth']} AT entries stranded after drain")
    if report["flight_depth"]:
        problems.append(
            f"{report['flight_depth']} flight records leaked after drain")
    if problems:
        return finish(CaseOutcome(
            ok=False, kind="conservation-violation",
            detail=f"[{faults.describe()}] " + "; ".join(problems), **base))
    return finish(CaseOutcome(
        ok=True, kind="ok",
        detail=f"[{faults.describe()}] drops={report['drops']}", **base))
