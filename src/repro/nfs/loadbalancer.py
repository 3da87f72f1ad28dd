"""Load Balancer NF (§6.1): ECMP over backend servers.

"We implement the commonly used ECMP mechanism in data centers that
hashed the 5-tuple of the packet to balance the load."  Acting as a
full-proxy VIP (the F5/A10 style of Table 2), it rewrites the
destination IP to the chosen backend and the source IP to its virtual
IP -- hence the Write(SIP)/Write(DIP) profile.

The hash input is ``Packet.flow_key()`` -- the 5-tuple's 13 bytes,
read straight from the frame.  Every fragment of a datagram hashes on
``(sip, dip, proto, 0, 0)``: only the first one carries the ports, so
reading "ports" from the others would scatter one datagram across
backends.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, List, Optional

from ..net.checksum import ipv4_header_checksum
from ..net.fields import Field
from ..net.headers import ip_to_int
from ..net.packet import _FRAGMENT, _KEY, Packet
from .base import NetworkFunction, ProcessingContext, register_nf_class

__all__ = ["LoadBalancer"]

DEFAULT_BACKENDS = tuple(f"172.16.0.{i}" for i in range(1, 9))


@register_nf_class
class LoadBalancer(NetworkFunction):
    """ECMP 5-tuple-hash load balancer with a virtual IP."""

    KIND = "loadbalancer"

    def __init__(
        self,
        name: Optional[str] = None,
        backends: Optional[List[str]] = None,
        vip: str = "10.255.0.1",
    ):
        super().__init__(name)
        self.backends = (
            list(DEFAULT_BACKENDS) if backends is None else list(backends)
        )
        if not self.backends:
            raise ValueError("load balancer needs at least one backend")
        self.vip = vip
        self.per_backend: Dict[str, int] = {b: 0 for b in self.backends}
        #: Per backend, the SIP+DIP bytes the rewrite stores: VIP, backend.
        self._addresses = [struct.pack("!II", ip_to_int(vip), ip_to_int(b))
                           for b in self.backends]

    def pick_backend(self, pkt: Packet) -> str:
        """The backend of ``pkt``'s flow: CRC32 (like hardware ECMP) of
        its flow key."""
        return self.backends[zlib.crc32(pkt.flow_key()) % len(self.backends)]

    def process(self, pkt: Packet, ctx: ProcessingContext) -> None:
        # One walk gives the flow key's bytes and the IPv4 offset the
        # rewrite stores at: :meth:`Packet.flow_key`, spelled out.
        buf, l3, proto, sport, dport = pkt._flow(_FRAGMENT)
        at = l3 + 12
        index = zlib.crc32(_KEY.pack(buf[at : at + 8], proto, sport, dport)
                           ) % len(self.backends)
        self.per_backend[self.backends[index]] += 1
        rec = pkt.recorder
        if rec is not None:
            rec.record("write", Field.DIP, pkt.uid)
            rec.record("write", Field.SIP, pkt.uid)
        buf[at : at + 8] = self._addresses[index]
        ipv4_header_checksum(buf, l3)

    def imbalance(self) -> float:
        """max/mean backend load ratio (1.0 = perfectly balanced)."""
        counts = list(self.per_backend.values())
        total = sum(counts)
        if total == 0:
            return 1.0
        mean = total / len(counts)
        return max(counts) / mean if mean else 1.0
