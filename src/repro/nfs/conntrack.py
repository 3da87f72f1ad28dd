"""Stateful (connection-tracking) firewall.

A deeper substrate NF beyond Table 2's stateless iptables row: tracks
TCP connections through a SYN → SYN/ACK → ESTABLISHED state machine and
enforces the classic stateful policy:

* outbound (client-side) SYNs from the protected prefix open a pending
  connection;
* inbound packets are accepted only when they belong to a tracked
  connection (or complete its handshake);
* RST/FIN tear the entry down;
* anything that matches no connection and opens none is dropped.

Its action profile (reads the 5-tuple, may drop) matches the stateless
firewall's row, so the orchestrator treats it identically -- which is
exactly the paper's point: parallelism analysis needs only the action
profile, not the NF's internal complexity.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Tuple

from ..net.headers import PROTO_TCP, TcpView, ip_to_int
from ..net.packet import Packet
from .base import NetworkFunction, ProcessingContext, register_nf_class

__all__ = ["ConnTrackFirewall", "ConnState"]


class ConnState(enum.Enum):
    SYN_SENT = "syn-sent"
    SYN_RECEIVED = "syn-received"
    ESTABLISHED = "established"


def _conn_key(pkt: Packet) -> bytes:
    """Direction-independent connection key: proto, then the two
    (address, port) ends of the port key in byte order."""
    key = pkt.port_key()
    a, b = key[0:4] + key[9:11], key[4:8] + key[11:13]
    return key[8:9] + (a + b if a <= b else b + a)


@register_nf_class
class ConnTrackFirewall(NetworkFunction):
    """Stateful TCP firewall protecting an inside prefix."""

    KIND = "conntrack-firewall"

    def __init__(
        self,
        name: Optional[str] = None,
        inside_prefix: Tuple[str, int] = ("10.0.0.0", 8),
        max_connections: int = 65536,
    ):
        super().__init__(name)
        address, length = inside_prefix
        if not 0 <= length <= 32:
            raise ValueError("prefix length out of range")
        self._mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
        self._net = ip_to_int(address) & self._mask
        self.max_connections = max_connections
        self._connections: Dict[bytes, ConnState] = {}
        self.established = 0
        self.rejected = 0

    # ------------------------------------------------------------ helpers
    def _is_inside(self, address: str) -> bool:
        return ip_to_int(address) & self._mask == self._net

    def connection_count(self) -> int:
        return len(self._connections)

    def state_of(self, pkt: Packet) -> Optional[ConnState]:
        return self._connections.get(_conn_key(pkt))

    # ------------------------------------------------------------- NF body
    def process(self, pkt: Packet, ctx: ProcessingContext) -> None:
        if pkt.l4_protocol != PROTO_TCP:
            # Non-TCP: allow outbound, drop unsolicited inbound.
            if not self._is_inside(pkt.ipv4.src_ip):
                self.rejected += 1
                ctx.drop("non-TCP from outside")
            return

        tcp = pkt.tcp
        flags = tcp.flags
        key = _conn_key(pkt)
        state = self._connections.get(key)
        outbound = self._is_inside(pkt.ipv4.src_ip)

        if flags & TcpView.FLAG_RST:
            self._connections.pop(key, None)
            return

        if flags & TcpView.FLAG_SYN and not flags & TcpView.FLAG_ACK:
            if state is None:
                if not outbound:
                    self.rejected += 1
                    ctx.drop("inbound SYN")
                    return
                if len(self._connections) >= self.max_connections:
                    self.rejected += 1
                    ctx.drop("connection table full")
                    return
                self._connections[key] = ConnState.SYN_SENT
            return

        if flags & TcpView.FLAG_SYN and flags & TcpView.FLAG_ACK:
            if state is ConnState.SYN_SENT:
                self._connections[key] = ConnState.SYN_RECEIVED
                return
            self.rejected += 1
            ctx.drop("SYN/ACK without SYN")
            return

        if state is None:
            self.rejected += 1
            ctx.drop("no tracked connection")
            return

        if state is ConnState.SYN_RECEIVED and flags & TcpView.FLAG_ACK:
            self._connections[key] = ConnState.ESTABLISHED
            self.established += 1

        if flags & TcpView.FLAG_FIN:
            self._connections.pop(key, None)
