"""Aggregate recorded access events into inferred action profiles."""

from __future__ import annotations

from typing import Dict, Iterable

from ..core.actions import Action, Verb
from ..net.recorder import AccessEvent

__all__ = ["Observation", "InferredProfile", "infer_profiles", "VERB_MAP"]

#: Recorder verb string -> profile verb.  Copy events carry attribution
#: for the copy machinery, not packet-content actions, so they are not
#: part of the footprint.
VERB_MAP = {
    "read": Verb.READ,
    "write": Verb.WRITE,
    "add": Verb.ADD,
    "remove": Verb.REMOVE,
    "drop": Verb.DROP,
}


class Observation:
    """Evidence for one inferred action: how often and first witness."""

    __slots__ = ("action", "count", "first_nf", "first_packet_uid")

    def __init__(self, action: Action, nf_name: str, packet_uid: int):
        self.action = action
        self.count = 1
        self.first_nf = nf_name
        self.first_packet_uid = packet_uid

    def to_dict(self) -> dict:
        return {
            "verb": self.action.verb.value,
            "field": str(self.action.field) if self.action.field else None,
            "count": self.count,
            "first_nf": self.first_nf,
            "first_packet_uid": self.first_packet_uid,
        }

    def __repr__(self) -> str:
        return (
            f"<Observation {self.action} x{self.count} "
            f"first={self.first_nf}/pkt#{self.first_packet_uid}>"
        )


class InferredProfile:
    """The execution-observed footprint of one NF kind."""

    def __init__(self, kind: str):
        self.kind = kind.lower()
        self.observations: Dict[Action, Observation] = {}
        #: Packets this kind was observed processing (unique uids seen).
        self.packets_seen = 0
        self._uids = set()

    def record(self, event: AccessEvent) -> None:
        self._uids.add(event.packet_uid)
        verb = VERB_MAP.get(event.verb)
        if verb is None:  # copy-full / copy-header: attribution only
            return
        action = Action(verb, event.field)
        obs = self.observations.get(action)
        if obs is None:
            self.observations[action] = Observation(
                action, event.nf_name, event.packet_uid
            )
        else:
            obs.count += 1

    @property
    def actions(self) -> frozenset:
        return frozenset(self.observations)

    def finish(self) -> "InferredProfile":
        self.packets_seen = len(self._uids)
        return self

    def __repr__(self) -> str:
        acts = ", ".join(sorted(str(a) for a in self.observations))
        return f"<InferredProfile {self.kind}: {acts or 'no accesses'}>"


def infer_profiles(events: Iterable[AccessEvent]) -> Dict[str, InferredProfile]:
    """Events -> inferred profile per NF *kind* (declarations are per kind)."""
    profiles: Dict[str, InferredProfile] = {}
    for event in events:
        kind = event.nf_kind.lower()
        profile = profiles.get(kind)
        if profile is None:
            profile = profiles[kind] = InferredProfile(kind)
        profile.record(event)
    for profile in profiles.values():
        profile.finish()
    return profiles
