"""IDS / NIDS / IPS NFs: signature matching over packet payloads.

The paper's IDS is "a simple NF similar to the core signature matching
component of the Snort intrusion detection system with 100 signature
inspection rules" (§6.1).  Matching uses the Aho-Corasick automaton.

Three flavours share the engine:

* :class:`Ids` -- the §6.1 prototype NF: alert only.
* :class:`Nids` -- the Table 2 row (NIDS cluster): identical actions.
* :class:`Ips` -- intrusion *prevention*: drops on match.  This is the
  NF of the §3 example ``Priority(IPS > Firewall)``.
"""

from __future__ import annotations

import random
import string
from typing import Dict, List, Optional, Union

from ..net.packet import FLOW_KEY, Packet
from .aho_corasick import AhoCorasick
from .base import NetworkFunction, ProcessingContext, register_nf_class

__all__ = ["Ids", "Nids", "Ips", "Signature", "build_signatures"]

DEFAULT_SIGNATURE_COUNT = 100


class Signature:
    """A Snort-style rule: content pattern plus optional 5-tuple guards.

    The content pattern drives the Aho-Corasick fast path (as in Snort's
    fast-pattern matcher); protocol/port constraints are checked only on
    content hits.
    """

    __slots__ = ("content", "msg", "protocol", "dport", "sport", "sid")

    _next_sid = [1]

    def __init__(
        self,
        content: bytes,
        msg: str = "",
        protocol: Optional[int] = None,
        dport: Optional[int] = None,
        sport: Optional[int] = None,
        sid: Optional[int] = None,
    ):
        if not content:
            raise ValueError("signature needs a non-empty content pattern")
        self.content = bytes(content)
        self.msg = msg or f"sig:{content[:16]!r}"
        self.protocol = protocol
        self.dport = dport
        self.sport = sport
        if sid is None:
            sid = Signature._next_sid[0]
            Signature._next_sid[0] += 1
        self.sid = sid

    def constraints_match(self, pkt: Packet) -> bool:
        try:
            _, _, proto, sport, dport = FLOW_KEY.unpack(pkt.port_key())
        except ValueError:
            return False
        if self.protocol is not None and proto != self.protocol:
            return False
        if self.dport is not None and dport != self.dport:
            return False
        if self.sport is not None and sport != self.sport:
            return False
        return True

    def __repr__(self) -> str:
        return f"Signature(sid={self.sid}, {self.msg})"


def build_signatures() -> List[bytes]:
    """Deterministic signature corpus (seed 23):
    :data:`DEFAULT_SIGNATURE_COUNT` printable byte strings.

    Signatures are 6-12 bytes, long enough that random payload bytes do
    not alert spuriously.
    """
    rng = random.Random(23)
    alphabet = string.ascii_lowercase + string.digits
    signatures = set()
    while len(signatures) < DEFAULT_SIGNATURE_COUNT:
        length = rng.randrange(6, 13)
        signatures.add("".join(rng.choice(alphabet) for _ in range(length)).encode())
    return sorted(signatures)


@register_nf_class
class Ids(NetworkFunction):
    """Alert-only signature matcher (Snort-like detection engine)."""

    KIND = "ids"

    def __init__(
        self,
        name: Optional[str] = None,
        signatures: Optional[List[Union[bytes, "Signature"]]] = None,
    ):
        super().__init__(name)
        raw = signatures if signatures is not None else build_signatures()
        #: A raw pattern's sid is its position in the list (1..N), so two
        #: IDS objects over the same list count alerts under the same keys.
        self.rules: List[Signature] = [
            sig if isinstance(sig, Signature) else Signature(sig, sid=position)
            for position, sig in enumerate(raw, 1)
        ]
        self.engine = AhoCorasick([rule.content for rule in self.rules])
        self.alerts = 0
        self.scanned_bytes = 0
        #: per-rule alert counters, keyed by sid.
        self.alerts_by_sid: Dict[int, int] = {}

    def process(self, pkt: Packet, ctx: ProcessingContext) -> None:
        payload = pkt.payload
        self.scanned_bytes += len(payload)
        matches = 0
        for rule_index, _ in self.engine.finditer(payload):
            rule = self.rules[rule_index]
            if not rule.constraints_match(pkt):
                continue
            matches += 1
            self.alerts_by_sid[rule.sid] = self.alerts_by_sid.get(rule.sid, 0) + 1
        if matches:
            self.alerts += matches
            self.on_match(pkt, ctx, matches)

    def on_match(self, pkt: Packet, ctx: ProcessingContext, matches: int) -> None:
        """Hook for subclasses; detection-only IDS just alerts."""


@register_nf_class
class Nids(Ids):
    """The Table 2 NIDS row -- same actions as the IDS prototype."""

    KIND = "nids"


@register_nf_class
class Ips(Ids):
    """Intrusion prevention: drop packets that match a signature."""

    KIND = "ips"

    def __init__(self, name=None, signatures=None):
        super().__init__(name, signatures)
        self.blocked = 0

    def on_match(self, pkt: Packet, ctx: ProcessingContext, matches: int) -> None:
        self.blocked += 1
        ctx.drop("ips signature match")
