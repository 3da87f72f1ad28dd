"""The single interface instrumented layers talk to: :class:`TelemetryHub`.

The dataplane, the DES substrate, the NFs and the multi-server pipeline
never touch :class:`~repro.telemetry.metrics.MetricsRegistry` or
:class:`~repro.telemetry.tracer.Tracer` directly; they hold a hub and
call its narrow API.  A disabled hub (the module-level :data:`NULL_HUB`,
the default everywhere) turns every call into a single attribute check,
so instrumentation costs nothing when telemetry is off.

Hot-path convention::

    # at construction: every metric name this site emits, formatted once
    self._service_metric = f"nf.{nf.name}.service_us"

    # per packet
    hub = self.telemetry
    if hub.enabled:                    # one attribute load + branch
        hub.observe(self._service_metric, service)
        hub.span(SpanKind.NF_END, now, pkt.meta, name, service)

* The outer ``enabled`` guard skips building the call arguments, which
  is where the real cost would be.
* Span arguments go by position: a keyword call costs more per call
  than the append behind it.
* A per-packet metric name is never formatted per packet; the site
  keeps it from its own construction.
* :meth:`TelemetryHub.inc` and :meth:`TelemetryHub.observe` are the
  entry points every site calls -- never a bound ``Counter`` or the
  registry's dicts.  The performance lab times telemetry by replacing
  these two methods on the class, so a site that went around them
  would make telemetry look cheaper without any work having gone.

The hub binds the registry's counter and histogram dicts and the
tracer's row list once, at construction: an ``inc`` is one dict lookup
and an add, an ``observe`` one lookup and a ``Histogram.record``, a
``span`` one tuple appended to :attr:`Tracer.rows` (a tracer with
``max_events`` set goes through :meth:`Tracer.record`, which counts the
overflow).  ``registry`` and ``tracer`` are therefore fixed for a hub's
lifetime.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from .metrics import DEFAULT_LATENCY_BOUNDS_US, MetricsRegistry
from .tracer import SpanKind, Tracer

__all__ = ["TelemetryHub", "NULL_HUB"]


class TelemetryHub:
    """Bundles a metrics registry and an optional tracer behind one flag."""

    __slots__ = ("enabled", "registry", "tracer",
                 "_counters", "_histograms", "_rows")

    def __init__(
        self,
        enabled: bool = True,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        self._counters = self.registry.counters
        self._histograms = self.registry.histograms
        #: Where a span is appended; None without a tracer or when the
        #: tracer is capped.
        self._rows = (tracer.rows if tracer is not None
                      and tracer.max_events is None else None)

    # ------------------------------------------------------------ metrics
    def inc(self, name: str, n: int = 1) -> None:
        """Bump a counter (no-op when disabled)."""
        if not self.enabled:
            return
        counter = self._counters.get(name)
        if counter is None or n < 0:
            # First use creates it; Counter.inc refuses a decrement.
            self.registry.counter(name).inc(n)
        else:
            counter.value += n

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
        """Record a sample into a histogram (no-op when disabled).

        ``bounds`` applies when the histogram is created, by the first
        sample under ``name``.
        """
        if not self.enabled:
            return
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self.registry.histogram(name, bounds)
        histogram.record(value)

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
        if not self.enabled or meta is None:
            return
        rows = self._rows
        if rows is not None:
            rows.append((kind, ts_us, meta.mid, meta.pid, meta.version,
                         name, duration_us, args))
        elif self.tracer is not None:
            self.tracer.record(kind, ts_us, meta.mid, meta.pid, meta.version,
                               name, duration_us, args)

    @property
    def tracing(self) -> bool:
        """True when span events will actually be stored."""
        return self.enabled and self.tracer is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"<TelemetryHub {state} tracer={'yes' if self.tracer else 'no'}>"


#: The shared disabled hub: every instrumented layer defaults to this,
#: making telemetry opt-in per server/run.
NULL_HUB = TelemetryHub(enabled=False)
