"""Flow match specifications for the Classification Table.

The paper's CT matches flows on "match fields (e.g. five tuple)"
(§5.1).  Besides exact 5-tuple keys and the wildcard, operators steer
*classes* of traffic into graphs; :class:`FlowMatch` expresses the
classic ACL-style predicate: source/destination prefixes, protocol,
and port ranges.  It reads the packet's flow key, whose ports are 0 on
every fragment, so one datagram's fragments steer into one graph (a
port predicate sees ports 0 on all of them).  Port *policy* -- the
firewall ACL, IDS constraints, conntrack -- reads ``Packet.port_key()``
instead, which keeps a first fragment's real ports.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..net.headers import ip_to_int
from ..net.packet import FLOW_KEY

__all__ = ["FlowMatch"]

_FULL_RANGE = (0, 65535)


class FlowMatch:
    """An ACL-style predicate over the 5-tuple.

    All criteria default to "any"; omitted fields do not constrain the
    match.  Prefixes are ``(address, length)`` pairs.
    """

    __slots__ = ("_src_net", "_src_mask", "_dst_net", "_dst_mask",
                 "protocol", "sport_range", "dport_range", "name")

    def __init__(
        self,
        src_prefix: Optional[Tuple[str, int]] = None,
        dst_prefix: Optional[Tuple[str, int]] = None,
        protocol: Optional[int] = None,
        sport_range: Tuple[int, int] = _FULL_RANGE,
        dport_range: Tuple[int, int] = _FULL_RANGE,
        name: str = "",
    ):
        self._src_net, self._src_mask = self._compile_prefix(src_prefix)
        self._dst_net, self._dst_mask = self._compile_prefix(dst_prefix)
        if protocol is not None and not 0 <= protocol <= 255:
            raise ValueError("protocol must be one byte")
        self.protocol = protocol
        for low, high in (sport_range, dport_range):
            if not (0 <= low <= high <= 65535):
                raise ValueError("invalid port range")
        self.sport_range = sport_range
        self.dport_range = dport_range
        self.name = name

    @staticmethod
    def _compile_prefix(prefix):
        if prefix is None:
            return 0, 0
        address, length = prefix
        if not 0 <= length <= 32:
            raise ValueError("prefix length out of range")
        mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
        return ip_to_int(address) & mask, mask

    def matches(self, key: bytes) -> bool:
        """Test a flow key (``Packet.flow_key()``)."""
        src, dst, proto, sport, dport = FLOW_KEY.unpack(key)
        if src & self._src_mask != self._src_net:
            return False
        if dst & self._dst_mask != self._dst_net:
            return False
        if self.protocol is not None and proto != self.protocol:
            return False
        if not self.sport_range[0] <= sport <= self.sport_range[1]:
            return False
        if not self.dport_range[0] <= dport <= self.dport_range[1]:
            return False
        return True

    def __repr__(self) -> str:
        return f"FlowMatch({self.name or 'unnamed'})"
