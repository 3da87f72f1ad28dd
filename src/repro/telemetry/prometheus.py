"""Prometheus text-exposition exporter for a :class:`MetricsRegistry`.

Sits alongside the JSONL and Chrome-trace exporters in
:mod:`repro.telemetry.export`: where those serve offline analysis, this
one emits the `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ a
scrape endpoint would serve, so a real deployment of this dataplane
could be wired into an existing Prometheus/Grafana stack unchanged.

Mapping rules:

* metric names are sanitised (dots and every other illegal character
  become ``_``) and prefixed (default ``repro_``);
* counters gain the conventional ``_total`` suffix;
* gauges export verbatim;
* histograms become ``_bucket`` series with *cumulative* counts and
  canonical ``le`` labels (upper bounds plus ``+Inf``), ``_sum`` and
  ``_count`` -- the exact shape ``histogram_quantile()`` expects;
* output is deterministically ordered (sorted by metric name) so it is
  golden-file testable.

Everything is derived from the registry snapshot; no state is kept.
"""

from __future__ import annotations

import re
from typing import List, Optional

from .metrics import MetricsRegistry

__all__ = ["to_prometheus", "write_prometheus", "sanitize_metric_name"]

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_FIRST = re.compile(r"^[^a-zA-Z_:]")


def sanitize_metric_name(name: str, prefix: str = "repro_") -> str:
    """``ring.ids#1.rx.depth`` -> ``repro_ring_ids_1_rx_depth``."""
    sanitized = _INVALID_CHARS.sub("_", name)
    sanitized = re.sub(r"__+", "_", sanitized).strip("_")
    full = f"{prefix}{sanitized}" if prefix else sanitized
    if _INVALID_FIRST.match(full):
        full = f"_{full}"
    return full


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def to_prometheus(
    registry: MetricsRegistry,
    prefix: str = "repro_",
) -> str:
    """Render a registry in Prometheus text exposition format, a
    ``# HELP`` line before each metric."""
    lines: List[str] = []

    for name in sorted(registry.counters):
        counter = registry.counters[name]
        metric = sanitize_metric_name(name, prefix)
        if not metric.endswith("_total"):
            metric += "_total"
        lines.append(f"# HELP {metric} Counter {name!r}.")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {counter.value}")

    for name in sorted(registry.gauges):
        gauge = registry.gauges[name]
        metric = sanitize_metric_name(name, prefix)
        lines.append(f"# HELP {metric} Gauge {name!r}.")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(gauge.value)}")

    for name in sorted(registry.histograms):
        histogram = registry.histograms[name]
        metric = sanitize_metric_name(name, prefix)
        lines.append(f"# HELP {metric} Histogram {name!r}.")
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(histogram.bounds, histogram.buckets):
            cumulative += count
            lines.append(
                f'{metric}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
            )
        lines.append(f'{metric}_bucket{{le="+Inf"}} {histogram.count}')
        lines.append(f"{metric}_sum {_format_value(histogram.total)}")
        lines.append(f"{metric}_count {histogram.count}")

    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(
    registry: MetricsRegistry,
    path: str,
    prefix: str = "repro_",
) -> Optional[str]:
    """Write the exposition to ``path``; returns the rendered text."""
    text = to_prometheus(registry, prefix=prefix)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text
