"""RSS flow-splitting and the classifier flow cache (§7 scale-out).

When a service graph is scaled out, flows must be pinned to exactly one
instance of every replicated NF so per-flow NF state stays local and
per-flow packet order is preserved -- the same guarantee hardware RSS
gives a multi-queue NIC.  Every execution plane (the timed DES server,
the functional dataplane, and the scaled sequential reference bank used
by differential testing) routes through the *same* hash in this module,
so flow -> instance assignments agree across planes by construction.

Two layers:

* :func:`packet_key` / :func:`key_digest` / :func:`pick_instance` --
  the split itself.  A flow is keyed by ``Packet.flow_key()``, the 13
  raw header bytes ``sip | dip | proto | sport | dport``, and hashed
  with crc32 over them (a NIC hashes the same fields with Toeplitz).
  ICMP and fragments have ports 0 in their key, so they hash like any
  other flow and every fragment of a datagram lands on one instance.
  Only a frame with no key at all (not IPv4, or cut short) pins to
  instance 0, counted under ``rss.pinned_flows``.  The same bytes key
  the control plane: flow cache, flow directory, handover and
  :func:`assign_instances`.
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
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..core.tables import CTEntry
from ..net.packet import Packet

__all__ = [
    "packet_key",
    "key_digest",
    "pick_instance",
    "assign_instances",
    "FlowDecision",
    "FlowCache",
]

#: Shared immutable assignment for graphs with no replicated NFs.
_NO_ASSIGNMENT: Dict[str, int] = {}


def packet_key(pkt: Packet) -> Optional[bytes]:
    """``pkt.flow_key()``, or ``None`` for a frame that has none (not
    IPv4, cut short, nil): it still flows, keyless."""
    try:
        return pkt.flow_key()
    except ValueError:
        return None


def key_digest(key: Optional[bytes], telemetry=None) -> int:
    """The RSS hash of a flow key, crc32 as commodity NICs use; 0 for a
    keyless frame, which pins to instance 0 of every scaled NF and is
    counted under ``rss.pinned_flows`` when ``telemetry`` is enabled, so
    the skew is reported instead of hidden."""
    if key is not None:
        return zlib.crc32(key)
    if telemetry is not None and telemetry.enabled:
        telemetry.inc("rss.pinned_flows")
    return 0


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
    key: Optional[bytes],
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
    same :func:`key_digest` / :func:`pick_instance` directly.
    """
    if not counts:
        return _NO_ASSIGNMENT
    digest = key_digest(key, telemetry)
    live = healthy or {}
    return {name: pick_instance(digest, count, live.get(name))
            for name, count in counts.items()}


@dataclass
class FlowDecision:
    """The memoized classifier verdict for one flow."""

    ct_entry: CTEntry
    assignment: Dict[str, int]


class FlowCache:
    """LRU cache of :class:`FlowDecision` keyed by flow key.

    Plain-integer counters mirror what the server reports through
    telemetry, so the cache is observable even without a hub attached.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("flow cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[bytes, FlowDecision]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bypasses = 0
        self.invalidations = 0

    def get(self, key: bytes) -> Optional[FlowDecision]:
        decision = self._entries.get(key)
        if decision is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return decision

    def put(self, key: bytes, decision: FlowDecision) -> bool:
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

    def keys(self) -> Tuple[bytes, ...]:
        """Cached flow keys, LRU first (for tests/telemetry)."""
        return tuple(self._entries.keys())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FlowCache({len(self)}/{self.capacity}, hits={self.hits}, "
                f"misses={self.misses}, evictions={self.evictions})")
