"""Measurement collectors for latency / throughput experiments.

`LatencyStats` accumulates per-packet end-to-end latencies and exposes the
summary statistics the paper plots (mean, percentiles).  `RateMeter`
counts packets over the measured interval to report Mpps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, List, Optional

__all__ = [
    "LatencyStats",
    "LatencySummary",
    "RateMeter",
    "percentile",
    "summarize",
]


def percentile(sorted_values: List[float], pct: float) -> float:
    """Linear-interpolated percentile of an ascending-sorted list."""
    if not sorted_values:
        raise ValueError("percentile of empty data")
    if not 0.0 <= pct <= 100.0:
        raise ValueError("percentile must be within [0, 100]")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (pct / 100.0) * (len(sorted_values) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return sorted_values[lo]
    frac = rank - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


@dataclass(frozen=True)
class LatencySummary:
    """The summary quantities the paper's figures plot, in one place.

    Built by :func:`summarize`; the single source every consumer
    (`eval.harness`, `eval.load_sweep`) shares instead of re-deriving
    mean/percentiles ad hoc.
    """

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    max: float


def summarize(values: Iterable[float]) -> LatencySummary:
    """Summary statistics of a sample set (mean, p50/p90/p99, max)."""
    data = sorted(values)
    if not data:
        raise ValueError("summarize of empty data")
    return LatencySummary(
        count=len(data),
        mean=sum(data) / len(data),
        p50=percentile(data, 50.0),
        p90=percentile(data, 90.0),
        p99=percentile(data, 99.0),
        max=data[-1],
    )


class LatencyStats:
    """Accumulates end-to-end packet latencies (microseconds).

    The first ``warmup_fraction`` of samples is excluded from every
    statistic (the paper measures steady state).  With *fewer than*
    ``1 / warmup_fraction`` samples the computed skip is zero, so no
    warm-up trimming actually happens; by default that condition emits
    a ``UserWarning`` once.  Pass ``allow_partial_warmup=True`` to
    declare short runs intentional and silence the warning.
    """

    def __init__(self, warmup_fraction: float = 0.1,
                 allow_partial_warmup: bool = False):
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup fraction must be in [0, 1)")
        self._samples: List[float] = []
        self._warmup_fraction = warmup_fraction
        self._allow_partial_warmup = allow_partial_warmup
        self._warned = False

    def record(self, latency_us: float) -> None:
        if latency_us < 0:
            raise ValueError("negative latency")
        self._samples.append(latency_us)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def warmup_skipped(self) -> int:
        """How many leading samples the statistics currently exclude."""
        return int(len(self._samples) * self._warmup_fraction)

    @property
    def warmup_effective(self) -> bool:
        """True when a non-empty warm-up prefix is actually trimmed."""
        return self.warmup_skipped > 0

    def _steady(self) -> List[float]:
        """Samples with the warm-up prefix removed.

        Explicit edge case: when the warm-up skip rounds down to zero
        (too few samples), the *full* sample set is returned and a
        ``UserWarning`` is emitted once, unless the instance was
        created with ``allow_partial_warmup=True``.
        """
        skip = self.warmup_skipped
        if (
            skip == 0
            and self._samples
            and self._warmup_fraction > 0.0
            and not self._allow_partial_warmup
            and not self._warned
        ):
            self._warned = True
            warnings.warn(
                f"LatencyStats has only {len(self._samples)} samples; the "
                f"{self._warmup_fraction:.0%} warm-up skip is empty and "
                "statistics include warm-up packets "
                "(pass allow_partial_warmup=True to silence)",
                UserWarning,
                stacklevel=3,
            )
        return self._samples[skip:] or self._samples

    def summary(self) -> LatencySummary:
        """Steady-state :class:`LatencySummary` of the recorded samples."""
        return summarize(self._steady())

    @property
    def mean(self) -> float:
        steady = self._steady()
        if not steady:
            raise ValueError("no latency samples recorded")
        return sum(steady) / len(steady)

    def pct(self, p: float) -> float:
        return percentile(sorted(self._steady()), p)

    @property
    def median(self) -> float:
        return self.pct(50.0)

    @property
    def p99(self) -> float:
        return self.pct(99.0)

    @property
    def max(self) -> float:
        steady = self._steady()
        if not steady:
            raise ValueError("no latency samples recorded")
        return max(steady)


class RateMeter:
    """Counts delivered packets to compute throughput in Mpps."""

    def __init__(self):
        self.delivered = 0
        self.dropped = 0
        self._first: Optional[float] = None
        self._last: Optional[float] = None

    def record_delivery(self, now_us: float) -> None:
        self.delivered += 1
        if self._first is None:
            self._first = now_us
        self._last = now_us

    def record_drop(self) -> None:
        self.dropped += 1

    @property
    def loss_fraction(self) -> float:
        total = self.delivered + self.dropped
        return self.dropped / total if total else 0.0

    def mpps(self) -> float:
        """Delivered packet rate over the observed span, in Mpps."""
        if self.delivered < 2 or self._first is None or self._last is None:
            return 0.0
        span = self._last - self._first
        if span <= 0:
            return 0.0
        # packets per microsecond == Mpps.
        return (self.delivered - 1) / span
