"""A calendar-queue event scheduler (Brown 1988) for the DES engine.

The heapq scheduler pays ``O(log n)`` per push and pop.  A calendar
queue hashes events into *day* buckets of a fixed ``width`` and pops by
scanning forward from the current day -- ``O(1)`` amortised when the
bucket width tracks the inter-event gap, which the queue maintains by
doubling its bucket count (and re-deriving the width from the observed
event-time span) whenever it grows past two events per bucket.

Correctness relies on the engine's monotonicity invariant: every pushed
time is ``now + delay`` with ``delay >= 0``, and ``now`` only advances
via pops, so no push lands before the last popped time.  The day scan
therefore starts at the last popped time's day; an entry whose day lies
beyond one full bucket rotation (a far-future timeout) is found by the
full-sweep fallback instead of being missed.

Entries are the engine's ``(time, eid, ...)`` tuples, of which only the
first two fields are read; ordering ties on ``(time, eid)`` exactly like
the heap (``eid`` is unique), so the pop sequence is identical
-- the Hypothesis property suite drives both schedulers through the same
programs and asserts equality event by event.

The container mimics just enough of a list for ``Environment.run`` /
``peek``: ``len()`` and ``queue[0]`` (the minimum entry).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

__all__ = ["CalendarQueue"]

#: Bucket-count ceiling: beyond this, doubling buys nothing but memory.
_MAX_BUCKETS = 32768


class CalendarQueue:
    """Bucket-calendar priority queue over ``(time, eid, ...)`` tuples."""

    __slots__ = ("_buckets", "_nb", "_width", "_size", "_last", "_cache")

    def __init__(
        self, num_buckets: int = 16, width: float = 1.0, start: float = 0.0
    ):
        if num_buckets < 1:
            raise ValueError("calendar queue needs at least one bucket")
        if width <= 0:
            raise ValueError("bucket width must be positive")
        self._buckets: List[List[tuple]] = [[] for _ in range(num_buckets)]
        self._nb = num_buckets
        self._width = float(width)
        self._size = 0
        #: Monotonic floor: the last popped time (or the start time).
        self._last = float(start)
        #: Cached location of the current minimum: (bucket, index).
        self._cache: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------- mutation
    def push(self, entry: tuple) -> None:
        bucket = int(entry[0] / self._width) % self._nb
        self._buckets[bucket].append(entry)
        self._size += 1
        self._cache = None
        if self._size > 2 * self._nb and self._nb < _MAX_BUCKETS:
            self._resize()

    def pop_min(self) -> tuple:
        """Remove and return the entry with the least ``(time, eid)``."""
        where = self._find_min()
        bucket_index, entry_index = where
        bucket = self._buckets[bucket_index]
        entry = bucket[entry_index]
        # Swap-remove: bucket order is irrelevant, min search re-sorts.
        bucket[entry_index] = bucket[-1]
        bucket.pop()
        self._size -= 1
        self._cache = None
        self._last = entry[0]
        return entry

    # -------------------------------------------------------------- queries
    def _find_min(self) -> Tuple[int, int]:
        if self._size == 0:
            raise IndexError("pop from an empty calendar queue")
        if self._cache is not None:
            return self._cache
        width = self._width
        nb = self._nb
        day = int(self._last / width)
        for k in range(nb):
            bucket = self._buckets[(day + k) % nb]
            if not bucket:
                continue
            # Admit only entries that belong to the day being visited;
            # the same bucket also holds entries a full rotation ahead.
            limit = (day + k + 1) * width
            best = -1
            for index, entry in enumerate(bucket):
                if entry[0] < limit and (
                    best < 0 or entry[:2] < bucket[best][:2]
                ):
                    best = index
            if best >= 0:
                self._cache = ((day + k) % nb, best)
                return self._cache
        # Nothing within one rotation: every entry lies a year or more
        # ahead (sparse far-future timeouts).  Global sweep.
        best_where: Optional[Tuple[int, int]] = None
        best_key = None
        for bucket_index, bucket in enumerate(self._buckets):
            for index, entry in enumerate(bucket):
                key = entry[:2]
                if best_key is None or key < best_key:
                    best_key = key
                    best_where = (bucket_index, index)
        assert best_where is not None
        self._cache = best_where
        return best_where

    def _resize(self) -> None:
        entries = [entry for bucket in self._buckets for entry in bucket]
        self._nb = min(self._nb * 2, _MAX_BUCKETS)
        lows = min(entry[0] for entry in entries)
        highs = max(entry[0] for entry in entries)
        span = highs - lows
        if span > 0:
            # Aim for ~3 entries per active day so a pop scans few days.
            self._width = max(span * 3.0 / len(entries), 1e-9)
        self._buckets = [[] for _ in range(self._nb)]
        width = self._width
        nb = self._nb
        for entry in entries:
            self._buckets[int(entry[0] / width) % nb].append(entry)
        self._cache = None

    # ----------------------------------------------------- list-alike shims
    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index: int) -> tuple:
        """Support ``queue[0]``: the minimum entry (engine ``peek``)."""
        if index != 0:
            raise IndexError("calendar queue only exposes the minimum")
        where = self._find_min()
        return self._buckets[where[0]][where[1]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CalendarQueue({self._size} events, {self._nb} buckets, "
            f"width={self._width:g})"
        )
