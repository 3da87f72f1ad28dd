"""The tuple-then-``repr`` flow key: the differential oracle for ``flow_bytes``.

Before ``Packet.flow_bytes`` the RSS split, the load balancer and the
monitor each keyed a packet the same way: ``five_tuple()`` built two
dotted-quad strings and a tuple, and the hash ran ``repr()`` and
``.encode()`` over it.  This module keeps that code verbatim -- the
kernel's ``flow_key`` / ``rss_hash``, the load balancer's ``_ecmp_hash``
/ ``pick_backend`` and the monitor's ``hash(tuple)`` table -- as free
functions and a small class, so
``tests/property/test_flow_bytes_differential.py`` can hold the byte
form to it.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Sequence, Tuple

from repro.net.headers import PROTO_TCP, PROTO_UDP
from repro.net.packet import Packet
from repro.nfs.monitor import FlowStats

__all__ = ["rss_hash", "flow_key", "ecmp_hash", "pick_backend",
           "HashKeyedMonitor"]


def rss_hash(five_tuple: tuple) -> int:
    """The RSS hash over a 5-tuple -- crc32, as commodity NICs use."""
    return zlib.crc32(repr(five_tuple).encode())


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


def ecmp_hash(five_tuple) -> int:
    """``LoadBalancer._ecmp_hash``: deterministic 5-tuple hash (CRC32)."""
    return zlib.crc32(repr(five_tuple).encode())


def pick_backend(backends: Sequence[str], pkt: Packet) -> str:
    """``LoadBalancer.pick_backend``: fragments hashed on their "ports"."""
    return backends[ecmp_hash(pkt.five_tuple()) % len(backends)]


class HashKeyedMonitor:
    """The monitor's table keyed by ``hash(five_tuple)``: two flows whose
    hashes collide share one counter."""

    def __init__(self):
        self._flows: Dict[int, FlowStats] = {}
        self._keys: Dict[int, Tuple] = {}

    def process(self, pkt: Packet) -> None:
        key = pkt.five_tuple()
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
