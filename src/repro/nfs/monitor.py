"""Monitor NF (§6.1): NetFlow-style per-flow counters.

"It maintains per-flow counters, which can be obtained by the operator.
The counter table uses the hash value of the 5-tuple as the key."
Read-only -- the canonical parallelizable NF of Fig. 1.

The table is keyed by ``Packet.flow_key()`` -- the 5-tuple's 13 bytes
read straight from the frame -- and the dict hashes that key, so two
flows whose hashes collide keep separate counters.  Every fragment of
a datagram counts under the datagram's key (ports 0).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..net.packet import Packet, decode_flow_key, encode_flow_key
from .base import NetworkFunction, ProcessingContext, register_nf_class

__all__ = ["Monitor", "FlowStats"]


class FlowStats:
    """Counters for one flow."""

    __slots__ = ("packets", "bytes")

    def __init__(self):
        self.packets = 0
        self.bytes = 0

    def __repr__(self) -> str:
        return f"FlowStats(packets={self.packets}, bytes={self.bytes})"


@register_nf_class
class Monitor(NetworkFunction):
    """Per-flow packet/byte accounting keyed by the 5-tuple."""

    KIND = "monitor"

    def __init__(self, name: Optional[str] = None):
        super().__init__(name)
        self._flows: Dict[bytes, FlowStats] = {}

    def process(self, pkt: Packet, ctx: ProcessingContext) -> None:
        key = pkt.flow_key()
        stats = self._flows.get(key)
        if stats is None:
            stats = FlowStats()
            self._flows[key] = stats
        stats.packets += 1
        stats.bytes += pkt.wire_len

    # ------------------------------------------------------ operator API
    def flow_count(self) -> int:
        return len(self._flows)

    def stats_for(self, five_tuple: Tuple) -> Optional[FlowStats]:
        return self._flows.get(encode_flow_key(five_tuple))

    def totals(self) -> Tuple[int, int]:
        """(total packets, total bytes) across all flows."""
        packets = sum(s.packets for s in self._flows.values())
        byte_count = sum(s.bytes for s in self._flows.values())
        return packets, byte_count

    def top_flows(self, n: int = 10):
        """The ``n`` busiest flows as (five_tuple, stats) pairs."""
        ranked = sorted(
            self._flows.items(), key=lambda kv: kv[1].packets, reverse=True
        )
        return [(decode_flow_key(key), stats) for key, stats in ranked[:n]]
