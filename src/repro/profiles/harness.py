"""Drive the profile audit over adversarial fuzz traffic.

This is the standalone (non-differential) way to run the oracle: build
NF chains, push :class:`CaseGenerator` traffic through them with an
:class:`AccessRecorder` attached, infer the per-kind footprints and
audit them against the declared table.  The CLI's ``profile-audit``
command and the CI smoke job are thin wrappers around
:func:`audit_catalog`.

Two chain modes:

* **catalog** (default, ``kinds=None``): each case's own generated NF
  chain runs as drawn -- over many cases every pool kind is exercised,
  including interactions (a vpn upstream gives vpn-decrypt real AH
  traffic to strip, vlan-push gives vlan-pop tagged frames, ...).
* **explicit** (``kinds=[...]``): the requested kinds run as a chain in
  the given order over every case's traffic, e.g.
  ``["vxlan-encap", "vxlan-decap"]`` to audit a tunnel pair.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.action_table import ActionTable, default_action_table
from ..net.recorder import AccessRecorder
from ..nfs.base import create_nf
from .audit import Finding, ProfileAuditor, hard_findings
from .infer import InferredProfile, infer_profiles

__all__ = ["AuditReport", "audit_catalog"]


class AuditReport:
    """Outcome of one audit run: inferred profiles + findings."""

    def __init__(
        self,
        inferred: Dict[str, InferredProfile],
        findings: List[Finding],
        cases: int,
        packets: int,
        table: ActionTable,
    ):
        self.inferred = inferred
        self.findings = findings
        self.cases = cases
        self.packets = packets
        self.table = table

    @property
    def hard(self) -> List[Finding]:
        return hard_findings(self.findings)

    @property
    def ok(self) -> bool:
        return not self.hard

    def to_dict(self) -> dict:
        return {
            "cases": self.cases,
            "packets": self.packets,
            "kinds_audited": sorted(self.inferred),
            "hard_findings": len(self.hard),
            "findings": [f.to_dict() for f in self.findings],
        }

    def rows(self) -> List[dict]:
        """Per-kind inferred-vs-declared rows for tabular rendering."""
        rows = []
        for kind in sorted(self.inferred):
            profile = self.inferred[kind]
            declared = (
                self.table.fetch(kind) if kind in self.table else None
            )
            hard = [f for f in self.hard if f.kind == kind]
            info = [f for f in self.findings if f.kind == kind and not f.hard]
            rows.append(
                {
                    "kind": kind,
                    "packets": profile.packets_seen,
                    "inferred": _fmt_actions(sorted(profile.actions, key=str)),
                    "declared": (
                        _fmt_actions(sorted(declared.actions, key=str))
                        if declared is not None
                        else "(unregistered)"
                    ),
                    "hard": len(hard),
                    "info": len(info),
                }
            )
        return rows


def _fmt_actions(actions) -> str:
    return " ".join(str(a) for a in actions) or "-"


def audit_catalog(
    kinds: Optional[Sequence[str]] = None,
    cases: int = 200,
    seed: int = 0,
    packets_per_case: int = 8,
    table: Optional[ActionTable] = None,
) -> AuditReport:
    """Run NFs over generated adversarial traffic and audit footprints.

    Findings are judged against the *untweaked* declared ``table`` (the
    generator's sound tweaks only widen declarations and are irrelevant
    here).  Fresh NF instances are created per case so stateful NFs
    (NAT bindings, dedup digests) start cold each time.
    """
    from ..check.generator import CaseGenerator  # late: check imports profiles

    table = table if table is not None else default_action_table()
    generator = CaseGenerator(seed=seed, packets_per_case=packets_per_case)
    recorder = AccessRecorder()
    packet_count = 0
    for index in range(cases):
        case = generator.generate(index)
        if kinds:
            chain = [(f"{kind}#audit", kind) for kind in kinds]
        else:
            chain = case.instances
        nfs = [create_nf(kind, name=name) for name, kind in chain]
        for pkt in case.build_packets():
            packet_count += 1
            pkt.recorder = recorder
            for nf in nfs:
                if nf.handle(pkt).dropped:
                    break
    inferred = infer_profiles(recorder.events)
    findings = ProfileAuditor(table).audit(inferred)
    return AuditReport(
        inferred=inferred,
        findings=findings,
        cases=cases,
        packets=packet_count,
        table=table,
    )
