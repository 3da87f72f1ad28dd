"""RSS flow-splitting and the classifier flow cache (§7 scale-out).

When a service graph is scaled out, flows must be pinned to exactly one
instance of every replicated NF so per-flow NF state stays local and
per-flow packet order is preserved -- the same guarantee hardware RSS
gives a multi-queue NIC.  Every execution plane (the timed DES server,
the functional dataplane, and the scaled sequential reference bank used
by differential testing) routes through the *same* hash in this module,
so flow -> instance assignments agree across planes by construction.

Two layers:

* :func:`flow_key` / :func:`rss_instance` -- the split itself.  Only
  unfragmented IPv4 TCP/UDP packets have a meaningful 5-tuple; anything
  else (ICMP, fragments, non-IP) deterministically lands on instance 0,
  which keeps such traffic ordered without pretending it has flow
  affinity.  The hash is crc32 over ``repr(five_tuple).encode()``;
  :func:`packet_digest` reads those bytes straight from the frame
  (``Packet.rss_bytes``) for the per-packet walk, while the tuple
  stays the key of the control plane (flow cache, flow directory,
  handover, :func:`assign_instances`).
* :class:`FlowCache` -- an LRU memo of the classifier's per-flow work
  (CT match, instance assignment).  The first packet of a flow
  pays the full CT lookup + tagging cost; subsequent packets hit the
  cache and pay ``classifier_cache_hit_us``.  The cache is invalidated
  wholesale whenever tables are (re)installed, so a recompiled graph can
  never be reached through a stale decision.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..core.tables import CTEntry
from ..net.headers import PROTO_TCP, PROTO_UDP
from ..net.packet import Packet

__all__ = [
    "rss_hash",
    "rss_instance",
    "flow_key",
    "flow_digest",
    "packet_digest",
    "pick_instance",
    "assign_instances",
    "FlowDecision",
    "FlowCache",
]

#: Shared immutable assignment for graphs with no replicated NFs.
_NO_ASSIGNMENT: Dict[str, int] = {}


def rss_hash(five_tuple: tuple) -> int:
    """The RSS hash over a 5-tuple -- crc32, as commodity NICs use."""
    return zlib.crc32(repr(five_tuple).encode())


def rss_instance(key: Optional[tuple], count: int) -> int:
    """Instance index for a flow key among ``count`` instances.

    ``None`` keys (no meaningful 5-tuple) pin to instance 0 so that
    ICMP/fragment traffic stays ordered on a single instance.
    """
    if count <= 1 or key is None:
        return 0
    return rss_hash(key) % count


def flow_key(pkt: Packet) -> Optional[tuple]:
    """The RSS/flow-cache key for a packet, or ``None`` when it has none.

    Only unfragmented IPv4 TCP/UDP packets key by 5-tuple; ICMP (and
    any other protocol), IP fragments, nil packets and non-IP frames
    return ``None`` -- they bypass the flow cache and pin to instance 0.
    """
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


def flow_digest(key: Optional[tuple], telemetry=None) -> int:
    """The RSS hash of a flow key; 0 for a keyless packet (ICMP,
    fragments, non-IP), which pins to instance 0 of every scaled NF and
    is counted under ``rss.pinned_flows`` when ``telemetry`` is enabled,
    so the known skew ceiling is reported instead of skewing silently."""
    if key is not None:
        return rss_hash(key)
    if telemetry is not None and telemetry.enabled:
        telemetry.inc("rss.pinned_flows")
    return 0


def packet_digest(pkt: Packet, telemetry=None) -> int:
    """``flow_digest(flow_key(pkt), telemetry)`` with no tuple built: crc32
    of ``pkt.rss_bytes()``, or 0 for a packet without a flow."""
    key = pkt.rss_bytes()
    if key is not None:
        return zlib.crc32(key)
    return flow_digest(None, telemetry)


def pick_instance(digest: int, count: int,
                  live: Optional[Sequence[int]] = None) -> int:
    """The instance a flow ``digest`` lands on among ``count`` -- the one
    statement of the split, failover included.

    A group with casualties rehashes over ``live``, its healthy subset;
    any other keeps the exact historical ``digest % count``, so a
    casualty in one group never reshuffles another group's flows.
    """
    if live is not None and 0 < len(live) < count:
        return live[digest % len(live)]
    return digest % count


def assign_instances(
    key: Optional[tuple],
    counts: Mapping[str, int],
    healthy: Optional[Mapping[str, Sequence[int]]] = None,
    telemetry=None,
) -> Dict[str, int]:
    """Per-NF instance assignment for one flow.

    ``counts`` maps the *replicated* NFs to their instance counts: every
    count must be > 1 (both callers keep such a map, so it is not
    re-filtered per flow); NFs not named implicitly read 0.  ``healthy``
    (failover) names the live instance indices of groups with
    casualties.  The functional plane's per-packet walk applies the
    same :func:`flow_digest` / :func:`pick_instance` directly.
    """
    if not counts:
        return _NO_ASSIGNMENT
    digest = flow_digest(key, telemetry)
    live = healthy or {}
    return {name: pick_instance(digest, count, live.get(name))
            for name, count in counts.items()}


@dataclass
class FlowDecision:
    """The memoized classifier verdict for one flow."""

    ct_entry: CTEntry
    assignment: Dict[str, int]


class FlowCache:
    """LRU cache of :class:`FlowDecision` keyed by 5-tuple.

    Plain-integer counters mirror what the server reports through
    telemetry, so the cache is observable even without a hub attached.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("flow cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, FlowDecision]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bypasses = 0
        self.invalidations = 0

    def get(self, key: tuple) -> Optional[FlowDecision]:
        decision = self._entries.get(key)
        if decision is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return decision

    def put(self, key: tuple, decision: FlowDecision) -> bool:
        """Insert a decision; returns True when an LRU entry was evicted."""
        evicted = False
        if key not in self._entries and len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            evicted = True
        self._entries[key] = decision
        self._entries.move_to_end(key)
        return evicted

    def invalidate(self) -> None:
        """Drop every cached decision (tables were (re)installed)."""
        self._entries.clear()
        self.invalidations += 1

    def decisions(self) -> Tuple[FlowDecision, ...]:
        """Cached decisions, LRU first (failover reassignment audit)."""
        return tuple(self._entries.values())

    def keys(self) -> Tuple[tuple, ...]:
        """Cached flow keys, LRU first (for tests/telemetry)."""
        return tuple(self._entries.keys())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FlowCache({len(self)}/{self.capacity}, hits={self.hits}, "
                f"misses={self.misses}, evictions={self.evictions})")
