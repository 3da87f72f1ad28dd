"""Counters, gauges and fixed-bucket histograms for the dataplane.

The paper's evaluation needs to know *where* cycles go: per-NF service
time, copy counts for OP#1/OP#2, merger accumulating-table behaviour,
ring occupancy.  This module provides the primitive metric types and a
:class:`MetricsRegistry` that owns them by name.

Design constraints, in order:

* **near-zero overhead when disabled** -- the registry itself is always
  cheap (dict lookups and integer adds), and callers are expected to
  guard hot-path calls behind ``hub.enabled`` (see
  :mod:`repro.telemetry.hooks`);
* **mergeable** -- registries from scaled-out instances or repeated
  runs combine with :meth:`MetricsRegistry.merge`: counters and
  histogram buckets add, gauges keep the maximum (watermark
  semantics);
* **snapshot-able** -- :meth:`MetricsRegistry.snapshot` returns plain
  dicts suitable for JSON export or assertions in tests.

Histograms use fixed exponential bucket bounds so that recording is one
bisect plus one add, merging is element-wise addition, and percentile
estimation is a cumulative walk with linear interpolation inside the
winning bucket (the classic Prometheus/HdrHistogram trade-off).
Percentile/summary logic for *raw sample lists* lives only in
:mod:`repro.sim.stats`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BOUNDS_US",
    "exponential_bounds",
]


def exponential_bounds(
    start: float = 1.0, factor: float = 2.0, count: int = 24
) -> Tuple[float, ...]:
    """Ascending exponential bucket upper bounds (``start * factor**k``)."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("bounds must be positive, growing, and non-empty")
    bounds = []
    value = float(start)
    for _ in range(count):
        bounds.append(value)
        value *= factor
    return tuple(bounds)


#: 1 us .. ~8.4 s in powers of two: covers a NIC hop through a saturated
#: multi-stage graph without ever overflowing in practice.
DEFAULT_LATENCY_BOUNDS_US = exponential_bounds(1.0, 2.0, 24)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only increase")
        self.value += n

    def merge_from(self, other: "Counter") -> None:
        self.value += other.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time float metric (occupancy, utilisation, watermark)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def merge_from(self, other: "Gauge") -> None:
        # Watermark semantics: the merged gauge keeps the peak.
        self.value = max(self.value, other.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Fixed-bucket histogram with linear-interpolated percentiles.

    ``bounds`` are ascending bucket *upper* bounds; one extra overflow
    bucket catches everything above the last bound.  Exact ``min``,
    ``max`` and ``sum`` are tracked alongside so the mean is exact and
    percentile estimates can be clamped to the observed range.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS_US):
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("histogram bounds must be ascending and non-empty")
        self.name = name
        self.bounds = bounds
        self.buckets = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def record(self, value: float) -> None:
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        return self.total / self.count

    def percentile(self, pct: float) -> float:
        """Bucket-interpolated percentile estimate, clamped to observed range."""
        if self.count == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        if not 0.0 <= pct <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        target = (pct / 100.0) * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.buckets):
            if cumulative + bucket_count >= target:
                lower = self.bounds[index - 1] if index > 0 else min(self.min, self.bounds[0])
                upper = self.bounds[index] if index < len(self.bounds) else self.max
                if bucket_count == 0:
                    estimate = lower
                else:
                    frac = (target - cumulative) / bucket_count
                    estimate = lower + frac * (upper - lower)
                return min(max(estimate, self.min), self.max)
            cumulative += bucket_count
        return self.max  # pragma: no cover - cumulative always reaches count

    def merge_from(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for index, bucket_count in enumerate(other.buckets):
            self.buckets[index] += bucket_count
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def snapshot(self) -> Dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count}>"


class MetricsRegistry:
    """Owns every metric by name; the per-server telemetry store."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------ access
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS_US
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name, bounds)
        return metric

    @property
    def counters(self) -> Dict[str, Counter]:
        return self._counters

    @property
    def gauges(self) -> Dict[str, Gauge]:
        return self._gauges

    @property
    def histograms(self) -> Dict[str, Histogram]:
        return self._histograms

    def counter_value(self, name: str) -> int:
        """A counter's value; 0 for one never incremented."""
        metric = self._counters.get(name)
        return metric.value if metric is not None else 0

    # ------------------------------------------------------------ combine
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (see module docstring)."""
        for name, counter in other._counters.items():
            self.counter(name).merge_from(counter)
        for name, gauge in other._gauges.items():
            self.gauge(name).merge_from(gauge)
        for name, histogram in other._histograms.items():
            self.histogram(name, histogram.bounds).merge_from(histogram)
        return self

    def snapshot(self) -> Dict:
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.snapshot() for n, h in sorted(self._histograms.items())
            },
        }
