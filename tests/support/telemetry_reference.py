"""The object-per-span recording path: the differential oracle for the row store.

Until spans were stored as tuple rows, ``Tracer.record`` built one
:class:`~repro.telemetry.tracer.SpanEvent` per call and numbered it from
a running ``_seq``, and every ``TelemetryHub`` call went through the
registry's by-name accessors (``registry.counter(name).inc(n)``,
``registry.histogram(name, bounds).record(v)``, ``tracer.record(...)``).
This module is those two classes, moved verbatim from ``src/`` (the
event, trace and registry types were not changed and are imported).

It favours being obviously the old behaviour over speed, and is what
``tests/property/test_telemetry_rows_differential.py`` holds the row
store to: the same ``events`` (every field, ``seq`` included, in order)
and the same ``registry.snapshot()``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.telemetry.metrics import DEFAULT_LATENCY_BOUNDS_US, MetricsRegistry
from repro.telemetry.tracer import PacketTrace, SpanEvent, SpanKind

__all__ = ["Tracer", "TelemetryHub"]


class Tracer:
    """Accumulates span events; bounded by ``max_events`` if given.

    When the cap is hit, further events are counted in ``overflow``
    instead of being stored -- tests assert ``overflow == 0`` to prove
    no spans were lost.
    """

    def __init__(self, max_events: Optional[int] = None):
        self.events: List[SpanEvent] = []
        self.max_events = max_events
        self.overflow = 0
        self._seq = 0

    def __len__(self) -> int:
        return len(self.events)

    def record(
        self,
        kind: SpanKind,
        ts_us: float,
        mid: int,
        pid: int,
        version: int,
        name: str = "",
        duration_us: float = 0.0,
        args: Optional[Dict] = None,
    ) -> None:
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.overflow += 1
            return
        self._seq += 1
        self.events.append(
            SpanEvent(
                kind=kind,
                ts_us=ts_us,
                mid=mid,
                pid=pid,
                version=version,
                name=name,
                duration_us=duration_us,
                seq=self._seq,
                args=args,
            )
        )

    def clear(self) -> None:
        self.events.clear()
        self.overflow = 0

    # ------------------------------------------------------- reassembly
    def traces(self) -> Dict[Tuple[int, int], PacketTrace]:
        """Group events by (MID, PID) and order each trace causally.

        Ordering is ``(ts_us, seq)``: simultaneous events (common in a
        DES) keep their recording order.
        """
        grouped: Dict[Tuple[int, int], PacketTrace] = {}
        for event in self.events:
            trace = grouped.get(event.key)
            if trace is None:
                trace = grouped[event.key] = PacketTrace(event.mid, event.pid)
            trace.events.append(event)
        for trace in grouped.values():
            trace.events.sort(key=lambda ev: (ev.ts_us, ev.seq))
        return grouped


class TelemetryHub:
    """Bundles a metrics registry and an optional tracer behind one flag."""

    __slots__ = ("enabled", "registry", "tracer")

    def __init__(
        self,
        enabled: bool = True,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer

    # ------------------------------------------------------------ metrics
    def inc(self, name: str, n: int = 1) -> None:
        """Bump a counter (no-op when disabled)."""
        if not self.enabled:
            return
        self.registry.counter(name).inc(n)

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge (no-op when disabled)."""
        if not self.enabled:
            return
        self.registry.gauge(name).set(value)

    def observe(
        self,
        name: str,
        value: float,
        bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS_US,
    ) -> None:
        """Record a sample into a histogram (no-op when disabled)."""
        if not self.enabled:
            return
        self.registry.histogram(name, bounds).record(value)

    # ------------------------------------------------------------ tracing
    def span(
        self,
        kind: SpanKind,
        ts_us: float,
        meta,
        name: str = "",
        duration_us: float = 0.0,
        args: Optional[Dict] = None,
    ) -> None:
        """Record a span event keyed by a ``PacketMeta`` (or skip if None)."""
        if not self.enabled or self.tracer is None or meta is None:
            return
        self.tracer.record(
            kind,
            ts_us,
            mid=meta.mid,
            pid=meta.pid,
            version=meta.version,
            name=name,
            duration_us=duration_us,
            args=args,
        )

    @property
    def tracing(self) -> bool:
        """True when span events will actually be stored."""
        return self.enabled and self.tracer is not None
