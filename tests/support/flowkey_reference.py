"""The tuple flow key: the differential oracle for ``Packet.flow_key``.

Before the 13-byte key, the RSS split and the flow cache keyed a packet
on its ``five_tuple()``, and only an unfragmented TCP/UDP frame had a
key at all; the monitor kept its table under ``hash(five_tuple)``.  This
module keeps that code -- the kernel's old ``flow_key`` and the
monitor's hash-keyed table -- so
``tests/property/test_flow_bytes_differential.py`` can hold the byte
key to the tuples it replaced.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.net.headers import PROTO_TCP, PROTO_UDP
from repro.net.packet import Packet
from repro.nfs.monitor import FlowStats

__all__ = ["flow_key", "HashKeyedMonitor"]


def flow_key(pkt: Packet) -> Optional[tuple]:
    """The RSS/flow-cache key for a packet, or ``None`` when it has none."""
    if pkt.nil:
        return None
    try:
        key = pkt.five_tuple()
    except ValueError:
        return None
    # In the whole IPv4 header five_tuple() found: MF or an offset set.
    buf, l3 = pkt.buf, pkt.l3_offset
    if (key[2] not in (PROTO_TCP, PROTO_UDP)
            or buf[l3 + 6] & 0x3F or buf[l3 + 7]):
        return None
    return key


class HashKeyedMonitor:
    """The monitor's table keyed by ``hash(key(pkt))``, ``key`` being
    ``five_tuple`` unless given: two flows whose hashes collide share
    one counter."""

    def __init__(self, key: Callable[[Packet], Tuple] = Packet.five_tuple):
        self._key = key
        self._flows: Dict[int, FlowStats] = {}
        self._keys: Dict[int, Tuple] = {}

    def process(self, pkt: Packet) -> None:
        key = self._key(pkt)
        bucket = hash(key)
        stats = self._flows.get(bucket)
        if stats is None:
            stats = FlowStats()
            self._flows[bucket] = stats
            self._keys[bucket] = key
        stats.packets += 1
        stats.bytes += pkt.wire_len

    def table(self) -> Dict[Tuple, Tuple[int, int]]:
        """five-tuple -> (packets, bytes), in first-seen order."""
        return {self._keys[bucket]: (stats.packets, stats.bytes)
                for bucket, stats in self._flows.items()}
