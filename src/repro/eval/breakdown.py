"""Latency breakdown: where each microsecond of a graph's latency goes.

Runs a workload with the :mod:`repro.telemetry` tracer enabled and
aggregates each packet's span events into named segments:

* ``ingest``       -- NIC arrival until classification;
* ``stage k``      -- from the previous milestone until the *last* NF of
  stage *k* finished with the packet (barrier semantics included, copy
  versions included -- the trace is keyed by (MID, PID), so branches of
  the service graph fold back into one per-packet view);
* ``merge``        -- final NF until the merger's rendezvous completed;
* ``egress``       -- merge until the frame cleared the TX NIC.

Useful for explaining measurements (which stage dominates, how much the
merge path costs) and asserted in tests: the segment means must sum to
the measured mean latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..core.graph import ServiceGraph
from ..core.policy import Policy
from ..telemetry import PacketTrace, SpanKind, TelemetryHub, Tracer
from ..traffic.generator import FIXED_64B, PacketSizeDistribution
from .harness import as_graph, measure_nfp

__all__ = ["LatencyBreakdown", "latency_breakdown"]


@dataclass
class LatencyBreakdown:
    """Mean per-segment latency contributions (microseconds)."""

    segments: Dict[str, float]
    total_us: float
    packets: int

    def share(self, segment: str) -> float:
        """Fraction of total latency spent in ``segment``."""
        if self.total_us <= 0:
            return 0.0
        return self.segments.get(segment, 0.0) / self.total_us

    def dominant(self) -> str:
        return max(self.segments, key=self.segments.get)

    def rows(self) -> List[tuple]:
        return [
            (name, value, self.share(name) * 100)
            for name, value in self.segments.items()
        ]

    def __str__(self) -> str:
        parts = ", ".join(
            f"{name}={value:.1f}us ({self.share(name) * 100:.0f}%)"
            for name, value in self.segments.items()
        )
        return f"LatencyBreakdown(total={self.total_us:.1f}us: {parts})"


def _segment_trace(
    graph: ServiceGraph, trace: PacketTrace
) -> Optional[Dict[str, float]]:
    """Turn one packet's span events into named segment durations.

    Returns ``None`` for packets that never cleared the TX NIC (still
    in flight or dropped) -- the breakdown averages delivered packets.
    """
    classify_ts: Optional[float] = None
    ingress_us: Optional[float] = None
    merged_ts: Optional[float] = None
    output_ts: Optional[float] = None
    nf_times: Dict[str, float] = {}
    for event in trace.events:
        if event.kind is SpanKind.CLASSIFY:
            classify_ts = event.ts_us
            if event.args:
                ingress_us = event.args.get("ingress_us")
        elif event.kind is SpanKind.NF_END:
            # Scaled instances are named name#k; normalise.
            name = event.name.split("#", 1)[0]
            nf_times[name] = max(nf_times.get(name, 0.0), event.ts_us)
        elif event.kind is SpanKind.MERGE_APPLY:
            merged_ts = event.ts_us
        elif event.kind is SpanKind.OUTPUT:
            output_ts = event.ts_us
    if output_ts is None:
        return None

    segments: Dict[str, float] = {}
    cursor = ingress_us if ingress_us is not None else (classify_ts or 0.0)
    if classify_ts is not None:
        segments["ingest"] = classify_ts - cursor
        cursor = classify_ts
    for index, stage in enumerate(graph.stages):
        finishes = [
            nf_times[e.node.name] for e in stage if e.node.name in nf_times
        ]
        if not finishes:
            continue
        stage_end = max(finishes)
        segments[f"stage {index}"] = max(0.0, stage_end - cursor)
        cursor = max(cursor, stage_end)
    if merged_ts is not None:
        segments["merge"] = max(0.0, merged_ts - cursor)
        cursor = max(cursor, merged_ts)
    segments["egress"] = max(0.0, output_ts - cursor)
    return segments


def latency_breakdown(
    target: Union[ServiceGraph, Policy, Sequence[str]],
    packets: int = 1500,
    sizes: PacketSizeDistribution = FIXED_64B,
    seed: int = 1,
) -> LatencyBreakdown:
    """Measure a graph with span tracing enabled and aggregate."""
    graph = as_graph(target)
    tracer = Tracer()
    measure_nfp(graph, packets=packets, sizes=sizes, seed=seed,
                telemetry=TelemetryHub(tracer=tracer))

    sums: Dict[str, float] = {}
    count = 0
    for trace in tracer.traces().values():
        segments = _segment_trace(graph, trace)
        if segments is None:
            continue
        count += 1
        for name, value in segments.items():
            sums[name] = sums.get(name, 0.0) + value
    if count == 0:
        raise RuntimeError("no traced packets were delivered")
    segments = {name: total / count for name, total in sums.items()}
    return LatencyBreakdown(
        segments=segments,
        total_us=sum(segments.values()),
        packets=count,
    )
