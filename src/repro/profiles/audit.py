"""Diff inferred profiles against declared action-table rows.

Severity model (from the ISSUE/ROADMAP framing):

* **hard** -- the NF was observed doing something its declaration does
  not cover (undeclared read/write/add/remove/drop).  The compiler's
  parallelism decisions are built on the declaration, so this is a
  latent race: two NFs declared independent may in fact touch the same
  bytes.
* **info** -- a declared action was never observed.  Over-approximation
  is sound (it only makes the compiler more conservative) but worth
  surfacing: it costs parallelism.

Findings serialize to plain JSON dicts so the fuzzer's shrinker and the
corpus replay path can carry them alongside case files.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Union

from ..core.action_table import ActionTable
from ..core.actions import Action, ActionProfile, Verb
from .infer import InferredProfile, Observation

__all__ = ["HARD", "INFO", "Finding", "ProfileAuditor", "hard_findings"]

HARD = "hard"
INFO = "info"


class Finding:
    """One inferred-vs-declared discrepancy for an NF kind."""

    __slots__ = (
        "severity",
        "kind",
        "verb",
        "field",
        "message",
        "nf_name",
        "packet_uid",
        "count",
    )

    def __init__(
        self,
        severity: str,
        kind: str,
        verb: str,
        field: Optional[str],
        message: str,
        nf_name: Optional[str] = None,
        packet_uid: Optional[int] = None,
        count: int = 0,
    ):
        self.severity = severity
        self.kind = kind
        self.verb = verb
        self.field = field
        self.message = message
        self.nf_name = nf_name
        self.packet_uid = packet_uid
        self.count = count

    @property
    def hard(self) -> bool:
        return self.severity == HARD

    def to_dict(self) -> dict:
        return {
            "severity": self.severity,
            "kind": self.kind,
            "verb": self.verb,
            "field": self.field,
            "message": self.message,
            "nf_name": self.nf_name,
            "packet_uid": self.packet_uid,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        return cls(
            severity=data["severity"],
            kind=data["kind"],
            verb=data["verb"],
            field=data.get("field"),
            message=data["message"],
            nf_name=data.get("nf_name"),
            packet_uid=data.get("packet_uid"),
            count=data.get("count", 0),
        )

    def __repr__(self) -> str:
        return f"<Finding {self.severity} {self.kind}: {self.message}>"


def _declared_covers(declared: ActionProfile, action: Action) -> bool:
    """Whether a declared profile covers one observed action.

    Reads/writes respect field overlap (a declared WHOLE_PACKET read
    covers any observed read); structural add/remove and drop must be
    declared verbatim.
    """
    if action.verb is Verb.DROP:
        return declared.may_drop
    if action.verb is Verb.READ:
        return any(f.overlaps(action.field) for f in declared.reads)
    if action.verb is Verb.WRITE:
        return any(f.overlaps(action.field) for f in declared.writes)
    if action.verb is Verb.ADD:
        return action.field in declared.adds
    if action.verb is Verb.REMOVE:
        return action.field in declared.removes
    return False  # pragma: no cover - enum is closed


class ProfileAuditor:
    """Cross-checks inferred footprints against an :class:`ActionTable`."""

    def __init__(self, table: ActionTable):
        self.table = table

    def audit_one(self, inferred: InferredProfile) -> List[Finding]:
        findings: List[Finding] = []
        kind = inferred.kind
        if kind not in self.table:
            findings.append(
                Finding(
                    HARD,
                    kind,
                    verb="*",
                    field=None,
                    message=f"NF kind {kind!r} has no declared action profile",
                )
            )
            return findings
        declared = self.table.fetch(kind)

        for action, obs in sorted(
            inferred.observations.items(), key=lambda kv: str(kv[0])
        ):
            if _declared_covers(declared, action):
                continue
            findings.append(self._undeclared(kind, action, obs))

        observed = inferred.actions
        for action in sorted(declared.actions, key=str):
            if action in observed:
                continue
            if any(_covers_declared(o, action) for o in observed):
                continue
            field = str(action.field) if action.field else None
            findings.append(
                Finding(
                    INFO,
                    kind,
                    verb=action.verb.value,
                    field=field,
                    message=(
                        f"declared {action.verb.value}"
                        f"{'(' + field + ')' if field else ''} never observed "
                        f"over {inferred.packets_seen} packets "
                        "(sound over-approximation; costs parallelism)"
                    ),
                )
            )
        return findings

    def audit(
        self,
        inferred: Union[Mapping[str, InferredProfile], Iterable[InferredProfile]],
    ) -> List[Finding]:
        """Audit many inferred profiles; hard findings sort first."""
        if isinstance(inferred, Mapping):
            profiles = list(inferred.values())
        else:
            profiles = list(inferred)
        findings: List[Finding] = []
        for profile in sorted(profiles, key=lambda p: p.kind):
            findings.extend(self.audit_one(profile))
        findings.sort(key=lambda f: (f.severity != HARD, f.kind, f.verb))
        return findings

    @staticmethod
    def _undeclared(kind: str, action: Action, obs: Observation) -> Finding:
        field = str(action.field) if action.field else None
        descr = f"{action.verb.value}{'(' + field + ')' if field else ''}"
        return Finding(
            HARD,
            kind,
            verb=action.verb.value,
            field=field,
            message=(
                f"undeclared {descr}: observed {obs.count}x, first by "
                f"{obs.first_nf!r} on packet #{obs.first_packet_uid}; the "
                "declared profile under-approximates the real footprint "
                "(latent parallelism race)"
            ),
            nf_name=obs.first_nf,
            packet_uid=obs.first_packet_uid,
            count=obs.count,
        )


def _covers_declared(observed: Action, declared: Action) -> bool:
    """Whether an observed action makes a declared one 'used'.

    An observed concrete-field access marks a declared WHOLE_PACKET
    declaration of the same verb as exercised.
    """
    if observed.verb is not declared.verb:
        return False
    if observed.field is None or declared.field is None:
        return observed.field is declared.field
    return observed.field.overlaps(declared.field)


def hard_findings(findings: Iterable[Finding]) -> List[Finding]:
    return [f for f in findings if f.hard]
