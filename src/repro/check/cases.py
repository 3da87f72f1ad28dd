"""Serializable fuzz cases: policy + profile tweaks + packet stream.

A :class:`FuzzCase` captures everything a differential run needs, in a
form that round-trips through JSON: the policy (instances + rules), a
list of :class:`ProfileTweak` perturbations over the Table 2 action
profiles, and a list of :class:`PacketSpec` describing the traffic.
The JSON form is what the shrinker emits as a repro seed and what the
``tests/corpus/`` files store.

Profile tweaks come in two flavours:

* *sound* tweaks (``add-read``, ``add-drop``) only add declared actions.
  Over-declaring reads/drops can only make the compiler more
  conservative (more copies, more sequentialisation), so the parallel
  graph must still match the sequential reference -- these are safe to
  mix into green fuzzing runs.
* *bug injections* (``hide-write``, ``hide-drop``, ``read-only``)
  remove declared actions, modelling an NF whose action profile lies
  about its behaviour.  These are expected to produce divergence and are
  only applied when explicitly requested (``fuzz --inject-bug``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.action_table import ActionTable, default_action_table
from ..core.actions import Action, ActionProfile, Verb
from ..core.policy import NFSpec, Policy
from ..net.fields import Field
from ..net.headers import ETH_HEADER_LEN, PROTO_TCP, PROTO_UDP
from ..net.packet import Packet, build_packet

__all__ = ["PacketSpec", "ProfileTweak", "FuzzCase", "SOUND_TWEAK_OPS"]

#: Tweak ops that only *add* declared actions -- safe for green fuzzing.
SOUND_TWEAK_OPS = frozenset({"add-read", "add-drop"})

#: Tweak ops that remove declared actions -- deliberate bug injection.
BUG_TWEAK_OPS = frozenset({"hide-write", "hide-drop", "read-only"})


@dataclass
class PacketSpec:
    """A reproducible recipe for one input packet.

    ``ident`` is stamped into the IPv4 identification field; no NF in
    the repo reads or writes it, so it survives both planes untouched
    and lets the differential executor match DES outputs back to their
    inputs regardless of emission order.
    """

    src_ip: str = "10.0.0.1"
    dst_ip: str = "10.200.0.1"
    src_port: int = 10000
    dst_port: int = 80
    protocol: int = PROTO_TCP
    size: int = 96
    payload: bytes = b""
    ident: int = 1
    tcp_flags: Optional[int] = None
    frag_mf: bool = False
    frag_offset: int = 0

    def build(self) -> Packet:
        """Materialise a fresh Packet (both planes need their own copy)."""
        # build_packet only knows TCP/UDP framing; other protocols (e.g.
        # ICMP for NAT's drop path) reuse the TCP skeleton and patch the
        # protocol number afterwards.
        skeleton = self.protocol if self.protocol in (PROTO_TCP, PROTO_UDP) else PROTO_TCP
        size = max(self.size, 54 + len(self.payload) + (8 if skeleton == PROTO_UDP else 20))
        pkt = build_packet(
            src_ip=self.src_ip,
            dst_ip=self.dst_ip,
            src_port=self.src_port,
            dst_port=self.dst_port,
            protocol=skeleton,
            payload=self.payload,
            size=size,
            identification=self.ident,
        )
        dirty = False
        if self.protocol not in (PROTO_TCP, PROTO_UDP):
            pkt.ipv4.protocol = self.protocol
            dirty = True
        elif self.tcp_flags is not None and skeleton == PROTO_TCP:
            pkt.tcp.flags = self.tcp_flags
        if self.frag_mf or self.frag_offset:
            word = (0x2000 if self.frag_mf else 0) | (self.frag_offset & 0x1FFF)
            offset = ETH_HEADER_LEN + 6
            pkt.buf[offset] = (word >> 8) & 0xFF
            pkt.buf[offset + 1] = word & 0xFF
            dirty = True
        if dirty:
            pkt.ipv4.update_checksum()
        return pkt

    def to_dict(self) -> dict:
        data = {
            "src_ip": self.src_ip,
            "dst_ip": self.dst_ip,
            "src_port": self.src_port,
            "dst_port": self.dst_port,
            "protocol": self.protocol,
            "size": self.size,
            "ident": self.ident,
        }
        if self.payload:
            data["payload"] = self.payload.hex()
        if self.tcp_flags is not None:
            data["tcp_flags"] = self.tcp_flags
        if self.frag_mf:
            data["frag_mf"] = True
        if self.frag_offset:
            data["frag_offset"] = self.frag_offset
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PacketSpec":
        return cls(
            src_ip=data.get("src_ip", "10.0.0.1"),
            dst_ip=data.get("dst_ip", "10.200.0.1"),
            src_port=int(data.get("src_port", 10000)),
            dst_port=int(data.get("dst_port", 80)),
            protocol=int(data.get("protocol", PROTO_TCP)),
            size=int(data.get("size", 96)),
            payload=bytes.fromhex(data.get("payload", "")),
            ident=int(data.get("ident", 1)),
            tcp_flags=data.get("tcp_flags"),
            frag_mf=bool(data.get("frag_mf", False)),
            frag_offset=int(data.get("frag_offset", 0)),
        )


@dataclass(frozen=True)
class ProfileTweak:
    """One perturbation of a Table 2 action profile."""

    kind: str
    op: str
    field: Optional[Field] = None

    def __post_init__(self):
        if self.op not in SOUND_TWEAK_OPS | BUG_TWEAK_OPS:
            raise ValueError(f"unknown profile tweak op {self.op!r}")
        if self.op in ("add-read", "hide-write") and self.field is None:
            raise ValueError(f"tweak {self.op!r} needs a field")

    def apply(self, table: ActionTable) -> None:
        """Rewrite the profile for ``kind`` in place (register replace)."""
        base = table.fetch(self.kind)
        actions = set(base.actions)
        if self.op == "add-read":
            actions.add(Action(Verb.READ, self.field))
        elif self.op == "add-drop":
            actions.add(Action(Verb.DROP))
        elif self.op == "hide-write":
            actions = {a for a in actions
                       if not (a.verb is Verb.WRITE and a.field is self.field)}
        elif self.op == "hide-drop":
            actions = {a for a in actions if a.verb is not Verb.DROP}
        elif self.op == "read-only":
            actions = {a for a in actions
                       if a.verb in (Verb.READ, Verb.DROP)}
        table.register(
            ActionProfile(base.name, actions, deployment_share=base.deployment_share),
            replace=True,
        )

    def to_dict(self) -> dict:
        data = {"kind": self.kind, "op": self.op}
        if self.field is not None:
            data["field"] = self.field.name
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ProfileTweak":
        fld = data.get("field")
        return cls(
            kind=data["kind"],
            op=data["op"],
            field=Field[fld] if fld else None,
        )

    @classmethod
    def parse(cls, spec: str) -> "ProfileTweak":
        """Parse a CLI spec like ``hidden-write:loadbalancer:DIP``.

        Accepted forms: ``hidden-write:<kind>:<FIELD>`` (alias
        ``hide-write``), ``no-drop:<kind>`` (alias ``hide-drop``),
        ``read-only:<kind>``, ``add-read:<kind>:<FIELD>``,
        ``add-drop:<kind>``.
        """
        parts = spec.split(":")
        op = {"hidden-write": "hide-write", "no-drop": "hide-drop"}.get(
            parts[0], parts[0])
        if op in ("hide-write", "add-read"):
            if len(parts) != 3:
                raise ValueError(f"tweak {spec!r} needs kind and field")
            return cls(kind=parts[1], op=op, field=Field[parts[2].upper()])
        if len(parts) != 2:
            raise ValueError(f"tweak {spec!r} needs exactly a kind")
        return cls(kind=parts[1], op=op)


@dataclass
class FuzzCase:
    """One differential-testing case: policy, profile tweaks, traffic."""

    case_id: str
    instances: List[Tuple[str, str]]  # (instance name, NF kind)
    rules: List[Tuple[str, ...]] = field(default_factory=list)
    packets: List[PacketSpec] = field(default_factory=list)
    tweaks: List[ProfileTweak] = field(default_factory=list)
    seed: Optional[int] = None

    def kinds(self) -> Dict[str, str]:
        return dict(self.instances)

    def policy(self) -> Policy:
        policy = Policy(name=self.case_id)
        for name, kind in self.instances:
            policy.declare(NFSpec(name, kind))
        for rule in self.rules:
            tag = rule[0]
            if tag == "order":
                policy.order(rule[1], rule[2])
            elif tag == "priority":
                policy.priority(rule[1], rule[2])
            elif tag == "position":
                policy.position(rule[1], rule[2])
            else:
                raise ValueError(f"unknown rule tag {tag!r}")
        return policy

    def action_table(self) -> ActionTable:
        table = default_action_table()
        for tweak in self.tweaks:
            tweak.apply(table)
        return table

    def build_packets(self) -> List[Packet]:
        return [spec.build() for spec in self.packets]

    def restricted_to(self, names: Sequence[str]) -> "FuzzCase":
        """The sub-case over a subset of NF instances.

        Order rules are restricted through their transitive closure so
        removing a middle NF keeps the ordering constraints between the
        survivors (the shrinker relies on this to preserve the policy's
        sequential semantics while deleting instances).
        """
        keep = [n for n, _ in self.instances if n in set(names)]
        kept = set(keep)
        edges = {(r[1], r[2]) for r in self.rules if r[0] == "order"}
        closure = set(edges)
        changed = True
        while changed:
            changed = False
            for a, b in list(closure):
                for c, d in list(closure):
                    if b == c and (a, d) not in closure and a != d:
                        closure.add((a, d))
                        changed = True
        rules: List[Tuple[str, ...]] = []
        for a, b in sorted(closure):
            if a in kept and b in kept:
                rules.append(("order", a, b))
        for rule in self.rules:
            if rule[0] == "priority" and rule[1] in kept and rule[2] in kept:
                rules.append(rule)
            elif rule[0] == "position" and rule[1] in kept:
                rules.append(rule)
        return FuzzCase(
            case_id=self.case_id,
            instances=[(n, k) for n, k in self.instances if n in kept],
            rules=rules,
            packets=list(self.packets),
            tweaks=list(self.tweaks),
            seed=self.seed,
        )

    def with_packets(self, packets: Sequence[PacketSpec]) -> "FuzzCase":
        return FuzzCase(
            case_id=self.case_id,
            instances=list(self.instances),
            rules=list(self.rules),
            packets=list(packets),
            tweaks=list(self.tweaks),
            seed=self.seed,
        )

    # ------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "seed": self.seed,
            "instances": [[n, k] for n, k in self.instances],
            "rules": [list(r) for r in self.rules],
            "tweaks": [t.to_dict() for t in self.tweaks],
            "packets": [p.to_dict() for p in self.packets],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzCase":
        return cls(
            case_id=data.get("case_id", "case"),
            seed=data.get("seed"),
            instances=[(n, k) for n, k in data["instances"]],
            rules=[tuple(r) for r in data.get("rules", [])],
            tweaks=[ProfileTweak.from_dict(t) for t in data.get("tweaks", [])],
            packets=[PacketSpec.from_dict(p) for p in data.get("packets", [])],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FuzzCase":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "FuzzCase":
        with open(path) as handle:
            return cls.from_json(handle.read())
