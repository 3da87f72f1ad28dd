"""Firewall NF (§6.1): ACL packet filter "similar to the Click IPFilter
element.  It passes or drops packets according to the Access Control
List (ACL) containing 100 rules."

Rules match prefix ranges over src/dst IP and port ranges over src/dst
port, first match wins, default action permit.  The ACL is compiled
once, as Click's IPFilter compiles its rules: rules are bucketed by
source mask, then by source network, so a packet looks up one bucket per
distinct mask and checks only the rules whose source prefix it is in,
keeping the lowest matching index.  The instance also
carries the ``extra_cycles`` busy-loop knob used by Fig. 9 ("we modify
the Firewall NF so that it busily loops for a given number of cycles
after modifying the packet").
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..net.headers import ip_to_int
from ..net.packet import FLOW_KEY, Packet
from .base import NetworkFunction, ProcessingContext, register_nf_class

__all__ = ["AclRule", "Firewall", "build_acl"]

DEFAULT_ACL_SIZE = 100


class AclRule:
    """One ACL entry: (src/dst prefix, port ranges) -> permit/deny."""

    __slots__ = ("src_net", "src_mask", "dst_net", "dst_mask",
                 "sport_range", "dport_range", "permit")

    def __init__(
        self,
        src_prefix: Tuple[str, int] = ("0.0.0.0", 0),
        dst_prefix: Tuple[str, int] = ("0.0.0.0", 0),
        sport_range: Tuple[int, int] = (0, 65535),
        dport_range: Tuple[int, int] = (0, 65535),
        permit: bool = True,
    ):
        src_ip, src_len = src_prefix
        dst_ip, dst_len = dst_prefix
        if not (0 <= src_len <= 32 and 0 <= dst_len <= 32):
            raise ValueError("prefix length out of range")
        self.src_mask = (0xFFFFFFFF << (32 - src_len)) & 0xFFFFFFFF if src_len else 0
        self.dst_mask = (0xFFFFFFFF << (32 - dst_len)) & 0xFFFFFFFF if dst_len else 0
        self.src_net = ip_to_int(src_ip) & self.src_mask
        self.dst_net = ip_to_int(dst_ip) & self.dst_mask
        if sport_range[0] > sport_range[1] or dport_range[0] > dport_range[1]:
            raise ValueError("invalid port range")
        self.sport_range = sport_range
        self.dport_range = dport_range
        self.permit = permit

    def matches(self, sip: int, dip: int, sport: int, dport: int) -> bool:
        return (
            (sip & self.src_mask) == self.src_net
            and (dip & self.dst_mask) == self.dst_net
            and self.sport_range[0] <= sport <= self.sport_range[1]
            and self.dport_range[0] <= dport <= self.dport_range[1]
        )


def build_acl() -> List[AclRule]:
    """A deterministic ACL (seed 11) of :data:`DEFAULT_ACL_SIZE` deny
    rules over the 192.168/16 test range, so ordinary benchmark traffic
    (10/8) always passes."""
    rng = random.Random(11)
    acl: List[AclRule] = []
    for _ in range(DEFAULT_ACL_SIZE):
        octet3 = rng.randrange(256)
        low = rng.randrange(0, 60000)
        acl.append(
            AclRule(
                src_prefix=(f"192.168.{octet3}.0", 24),
                dport_range=(low, low + rng.randrange(1, 5000)),
                permit=False,
            )
        )
    return acl


@register_nf_class
class Firewall(NetworkFunction):
    """First-match ACL firewall; default permit."""

    KIND = "firewall"

    def __init__(
        self,
        name: Optional[str] = None,
        acl: Optional[Sequence[AclRule]] = None,
    ):
        super().__init__(name)
        #: A tuple: the index below is compiled from it once.
        self.acl: Tuple[AclRule, ...] = tuple(
            acl if acl is not None else build_acl())
        self.permitted = 0
        self.denied = 0
        buckets: Dict[int, Dict[int, list]] = {}
        for index, rule in enumerate(self.acl):
            buckets.setdefault(rule.src_mask, {}).setdefault(
                rule.src_net, []).append((
                    index, rule.dst_mask, rule.dst_net, *rule.sport_range,
                    *rule.dport_range, rule.permit))
        #: ``(src_mask, {src_net: rules})`` per distinct source mask;
        #: each bucket's rules in ACL order, flattened to
        #: ``(index, dst_mask, dst_net, sport lo/hi, dport lo/hi, permit)``.
        self._index = tuple(
            (mask, {net: tuple(rules) for net, rules in nets.items()})
            for mask, nets in buckets.items())
        #: One past the last index: no rule matched, default permit.
        self._rules = len(self.acl)

    def process(self, pkt: Packet, ctx: ProcessingContext) -> None:
        sip, dip, _, sport, dport = FLOW_KEY.unpack(pkt.port_key())
        first, permit = self._rules, True
        for mask, nets in self._index:
            for (index, dst_mask, dst_net, sport_lo, sport_hi, dport_lo,
                 dport_hi, rule_permit) in nets.get(sip & mask, ()):
                if index >= first:
                    break
                if ((dip & dst_mask) == dst_net
                        and sport_lo <= sport <= sport_hi
                        and dport_lo <= dport <= dport_hi):
                    first, permit = index, rule_permit
                    break
        if not permit:
            self.denied += 1
            ctx.drop("acl deny")
            return
        self.permitted += 1
