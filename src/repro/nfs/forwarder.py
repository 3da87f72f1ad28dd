"""L3 Forwarder NF (§6.1): longest-prefix-match next-hop lookup.

"A simple forwarder that obtains the matching entry from a longest
prefix matching table with 1000 entries to find out the next hop."
Like a real router hop it also decrements TTL and fixes the IPv4
checksum, which is why its action profile is Read(DIP) + Write(TTL).
"""

from __future__ import annotations

import random
from typing import Optional

from ..net.headers import int_to_ip
from ..net.lpm import LpmTable
from ..net.packet import Packet
from .base import NetworkFunction, ProcessingContext, register_nf_class

__all__ = ["L3Forwarder", "build_routing_table"]

DEFAULT_ROUTE_COUNT = 1000


def build_routing_table() -> LpmTable:
    """A deterministic LPM table of :data:`DEFAULT_ROUTE_COUNT` random
    prefixes (seed 7).

    Always includes a default route so every packet resolves.
    """
    rng = random.Random(7)
    table = LpmTable()
    table.insert("0.0.0.0", 0, "next-hop-default")
    while len(table) < DEFAULT_ROUTE_COUNT:
        prefix_len = rng.choice((8, 12, 16, 20, 24, 28))
        address = rng.getrandbits(32) & (0xFFFFFFFF << (32 - prefix_len))
        table.insert(int_to_ip(address), prefix_len, f"next-hop-{len(table)}")
    return table


@register_nf_class
class L3Forwarder(NetworkFunction):
    """LPM-based IPv4 forwarder."""

    KIND = "forwarder"

    def __init__(self, name: Optional[str] = None, routes: Optional[LpmTable] = None):
        super().__init__(name)
        self.routes = routes if routes is not None else build_routing_table()
        self.lookups = 0
        self.no_route = 0
        self.last_next_hop: Optional[str] = None

    def process(self, pkt: Packet, ctx: ProcessingContext) -> None:
        ip = pkt.ipv4
        self.lookups += 1
        next_hop = self.routes.lookup(ip.dst_ip)
        if next_hop is None:
            self.no_route += 1
            ctx.drop("no route")
            return
        self.last_next_hop = next_hop
        if ip.ttl <= 1:
            ctx.drop("ttl exceeded")
            return
        ip.ttl = ip.ttl - 1
        ip.update_checksum()
