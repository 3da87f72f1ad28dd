"""Windowed time-series telemetry: the streaming half of observability.

The existing :class:`~repro.telemetry.metrics.MetricsRegistry` answers
*what happened over the whole run*; this module answers *what was
happening during window k* -- the sensor layer a runtime autoscaler (or
a human watching a flash crowd) subscribes to.

Design: the hot path is untouched.  Instrumented layers keep writing
cumulative counters and histograms into the registry exactly as before;
a :class:`Sampler` wakes up once per window (a periodic DES event on the
timed plane, or whenever its owner calls ``sample``)
and snapshots the *delta* since its previous wake-up:

* **counters** -- per-window increments (``tx.packets`` delta is the
  windowed throughput, ``drops.*`` deltas are windowed drops by reason);
* **histograms** -- per-window bucket deltas, materialised as real
  :class:`~repro.telemetry.metrics.Histogram` objects with the same
  bounds.  Because every sample lands in exactly one window's delta,
  merging all windows reproduces the whole-run histogram *exactly*
  (the property test in ``tests/property`` holds this invariant);
* **probes** -- live gauges the registry cannot see (ring depth, AT
  depth, per-core windowed utilisation), supplied as callables by the
  sampled component (:meth:`repro.dataplane.server.NFPServer.probes`).

Windows live in a bounded ring buffer; evicted windows fold into a
running remainder so :meth:`TimeSeries.merged_histogram`,
:meth:`TimeSeries.total` and :meth:`TimeSeries.peak` stay exact however
long the run is.  An unarmed sampler costs nothing: nothing is wired
into any packet path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .hooks import TelemetryHub
from .metrics import Histogram
from ..sim.engine import Environment

__all__ = ["Window", "TimeSeries", "Sampler", "sparkline"]

#: Unicode block ramp used by the ASCII dashboards.
_SPARK_CHARS = " .:-=+*#%@"

#: Most characters a sparkline takes.
SPARK_WIDTH = 60


def sparkline(values: List[float]) -> str:
    """Render a series as a one-line ASCII sparkline of at most
    :data:`SPARK_WIDTH` characters (empty -> '')."""
    if not values:
        return ""
    width = SPARK_WIDTH
    if len(values) > width:
        # Downsample by taking the max of each chunk: peaks must survive.
        chunk = len(values) / width
        values = [
            max(values[int(i * chunk):max(int(i * chunk) + 1,
                                          int((i + 1) * chunk))])
            for i in range(width)
        ]
    top = max(values)
    if top <= 0:
        return _SPARK_CHARS[0] * len(values)
    scale = len(_SPARK_CHARS) - 1
    return "".join(
        _SPARK_CHARS[min(scale, int(round(v / top * scale)))] for v in values
    )


@dataclass
class Window:
    """One fixed interval's telemetry: deltas, probes, delta histograms."""

    index: int
    start_us: float
    end_us: float
    #: Counter increments that landed inside this window.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Point-in-time probe samples (ring depth, AT depth, utilisation).
    gauges: Dict[str, float] = field(default_factory=dict)
    #: Per-window delta histograms (same bounds as the cumulative ones).
    histograms: Dict[str, Histogram] = field(default_factory=dict)

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    def value(self, metric: str) -> Optional[float]:
        """Resolve a metric name inside this window (gauge, then counter)."""
        if metric in self.gauges:
            return self.gauges[metric]
        if metric in self.counters:
            return float(self.counters[metric])
        return None

    def percentile(self, metric: str, pct: float) -> Optional[float]:
        histogram = self.histograms.get(metric)
        if histogram is None or histogram.count == 0:
            return None
        return histogram.percentile(pct)


class TimeSeries:
    """A bounded ring of windows plus exact run-wide accumulators.

    The ring keeps the most recent ``capacity`` windows for plotting and
    rule evaluation; anything older folds into the ``_evicted_*``
    accumulators, so totals, merged histograms and peaks are exact for
    the whole run regardless of retention.
    """

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise ValueError("time series capacity must be >= 1")
        self.capacity = capacity
        self.windows: Deque[Window] = deque()
        self.evicted = 0
        self._evicted_counters: Dict[str, int] = {}
        self._evicted_hists: Dict[str, Histogram] = {}
        #: metric -> (peak value, window index); gauges and counters both.
        self._peaks: Dict[str, Tuple[float, int]] = {}

    def __len__(self) -> int:
        return len(self.windows)

    @property
    def total_windows(self) -> int:
        return len(self.windows) + self.evicted

    def append(self, window: Window) -> None:
        for name, value in window.counters.items():
            peak = self._peaks.get(name)
            if peak is None or value > peak[0]:
                self._peaks[name] = (float(value), window.index)
        for name, value in window.gauges.items():
            peak = self._peaks.get(name)
            if peak is None or value > peak[0]:
                self._peaks[name] = (value, window.index)
        self.windows.append(window)
        if len(self.windows) > self.capacity:
            self._evict(self.windows.popleft())

    def _evict(self, window: Window) -> None:
        self.evicted += 1
        for name, value in window.counters.items():
            self._evicted_counters[name] = (
                self._evicted_counters.get(name, 0) + value
            )
        for name, histogram in window.histograms.items():
            merged = self._evicted_hists.get(name)
            if merged is None:
                merged = self._evicted_hists[name] = Histogram(
                    name, histogram.bounds
                )
            merged.merge_from(histogram)

    # ------------------------------------------------------------- queries
    def series(self, metric: str) -> List[Tuple[float, float]]:
        """``(window end time, value)`` points for the retained windows."""
        points = []
        for window in self.windows:
            value = window.value(metric)
            if value is not None:
                points.append((window.end_us, value))
        return points

    def values(self, metric: str) -> List[float]:
        return [value for _, value in self.series(metric)]

    def counter_values(self, metric: str) -> List[float]:
        """Per retained window counter deltas, zeros included.

        Unlike :meth:`values` (which skips windows without the metric),
        this keeps the time axis dense -- the right shape for
        throughput/drop sparklines where silence is signal.
        """
        return [float(window.counters.get(metric, 0))
                for window in self.windows]

    def percentile_series(self, metric: str,
                          pct: float) -> List[Tuple[float, float]]:
        """Per-window percentile points of a windowed histogram."""
        points = []
        for window in self.windows:
            value = window.percentile(metric, pct)
            if value is not None:
                points.append((window.end_us, value))
        return points

    def peak(self, metric: str) -> Optional[Tuple[float, int]]:
        """Run-wide ``(peak value, window index)``, eviction-proof."""
        return self._peaks.get(metric)

    def total(self, metric: str) -> int:
        """Run-wide counter total: evicted remainder + retained windows."""
        return self._evicted_counters.get(metric, 0) + sum(
            window.counters.get(metric, 0) for window in self.windows
        )

    def merged_histogram(self, metric: str) -> Optional[Histogram]:
        """Merge every window's delta histogram (evicted ones included).

        By construction this equals the cumulative registry histogram at
        the time of the last sample -- the partition invariant the
        property suite checks.
        """
        merged: Optional[Histogram] = None
        evicted = self._evicted_hists.get(metric)
        if evicted is not None:
            merged = Histogram(metric, evicted.bounds)
            merged.merge_from(evicted)
        for window in self.windows:
            histogram = window.histograms.get(metric)
            if histogram is None:
                continue
            if merged is None:
                merged = Histogram(metric, histogram.bounds)
            merged.merge_from(histogram)
        return merged

    def metric_names(self) -> List[str]:
        names = set(self._evicted_counters)
        for window in self.windows:
            names.update(window.counters)
            names.update(window.gauges)
        return sorted(names)


class Sampler:
    """Snapshots a hub's registry into fixed windows; DES- or caller-driven.

    One sampler watches one :class:`TelemetryHub` (plus optional live
    probes).  Arm it on a DES environment with :meth:`arm` -- it
    schedules itself as a periodic simulation event and retires when the
    event queue drains -- or close windows by hand with :meth:`sample`.

    Subscribers (:class:`~repro.telemetry.watch.Watcher`, dashboards)
    register callables via :meth:`subscribe`; each completed
    :class:`Window` is delivered synchronously at sample time.
    """

    def __init__(
        self,
        hub: TelemetryHub,
        window_us: float = 100.0,
        capacity: int = 512,
    ):
        if window_us <= 0:
            raise ValueError("window_us must be positive")
        self.hub = hub
        self.window_us = float(window_us)
        self.series = TimeSeries(capacity=capacity)
        self.probes: Dict[str, Callable[[], float]] = {}
        self._subscribers: List[Callable[[Window], None]] = []
        self._last_counters: Dict[str, int] = {}
        self._last_buckets: Dict[str, List[int]] = {}
        self._last_sums: Dict[str, Tuple[float, float, float]] = {}
        self._window_start = 0.0
        self._next_index = 0
        self.armed = False

    # ---------------------------------------------------------- wiring
    def add_probes(self, probes: Dict[str, Callable[[], float]]) -> None:
        self.probes.update(probes)

    def subscribe(self, callback: Callable[[Window], None]) -> None:
        self._subscribers.append(callback)

    # -------------------------------------------------------- sampling
    def sample(self, now_us: float) -> Window:
        """Close the current window at ``now_us`` and open the next one."""
        window = Window(
            index=self._next_index,
            start_us=self._window_start,
            end_us=now_us,
        )
        self._next_index += 1
        self._window_start = now_us

        registry = self.hub.registry
        for name, counter in registry.counters.items():
            previous = self._last_counters.get(name, 0)
            if counter.value != previous:
                window.counters[name] = counter.value - previous
            self._last_counters[name] = counter.value
        for name, histogram in registry.histograms.items():
            previous = self._last_buckets.get(name)
            baseline = previous if previous is not None \
                else [0] * len(histogram.buckets)
            if histogram.buckets != baseline:
                window.histograms[name] = self._delta_histogram(
                    name, histogram, previous
                )
            self._last_buckets[name] = list(histogram.buckets)
            self._last_sums[name] = (
                histogram.total, histogram.min, histogram.max
            )
        for name, probe in self.probes.items():
            window.gauges[name] = float(probe())

        self.series.append(window)
        for subscriber in self._subscribers:
            subscriber(window)
        return window

    def _delta_histogram(
        self,
        name: str,
        histogram: Histogram,
        previous: Optional[List[int]],
    ) -> Histogram:
        delta = Histogram(name, histogram.bounds)
        if previous is None:
            previous = [0] * len(histogram.buckets)
        total = 0
        for index, count in enumerate(histogram.buckets):
            step = count - previous[index]
            delta.buckets[index] = step
            total += step
        delta.count = total
        last_total, last_min, last_max = self._last_sums.get(
            name, (0.0, float("inf"), float("-inf"))
        )
        delta.total = histogram.total - last_total
        # Exact min/max are only known cumulatively; per-window we bound
        # them by the cumulative observed range, which keeps merges exact
        # for buckets/count/sum (the quantities percentiles read).
        delta.min = histogram.min
        delta.max = histogram.max
        return delta

    def flush(self, now_us: float) -> Optional[Window]:
        """Close a final partial window if anything happened since."""
        if now_us <= self._window_start and self._next_index > 0:
            return None
        return self.sample(max(now_us, self._window_start))

    # ------------------------------------------------------------- DES
    def arm(self, env: Environment) -> None:
        """Schedule the sampler as a periodic DES call.

        Each tick samples, then re-arms one window later -- unless
        nothing else is scheduled (the run is over), in which case it
        retires, so arming never prevents ``env.run()`` from draining.
        """
        if self.armed:
            return
        self.armed = True
        self._window_start = env.now
        env.call_later(self.window_us, self._tick, env)

    def _tick(self, env: Environment) -> None:
        self.sample(env.now)
        if env.peek() != float("inf"):
            env.call_later(self.window_us, self._tick, env)
