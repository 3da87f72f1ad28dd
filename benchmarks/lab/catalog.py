"""The metric catalogue: every name the lab prints, with its meaning.

``BENCHMARK.json`` at the repo root is the driver's view of this file
(``tests/test_smoke.py`` keeps the two in step).  The driver wants every
end-to-end metric on every workload, never zero, and steady across
seeds, so only the three host-clock metrics every workload has are
end-to-end *there*; the model-clock metrics and ``failed_share`` exist on
some workloads only (or are exactly zero when all is well), so the
driver sees them in the traced run, while the lab's own report and
``--agree`` treat all ten below as end-to-end.

Every metric names the workloads it is measured on.  On the others it
reads 0; on its own workloads a value that was not measured is an error,
never a silent 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["Metric", "END_TO_END", "END_TO_END_NAMES", "PER_LAYER",
           "TRACED", "DRIVER_END_TO_END", "ALL_WORKLOADS"]

NS, WE_X4, WE_DES, FLASH = (("ns_dcmix_func",), ("we_x4_64b_func",),
                            ("we_dcmix_des",), ("flash_crowd_des",))
ALL_WORKLOADS = NS + WE_X4 + WE_DES + FLASH
FUNC = NS + WE_X4
DES = WE_DES + FLASH


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    #: "host" (calibrated wall clock), "model" (DES microseconds) or
    #: "count" (exact, repeats bit for bit).
    clock: str
    better: str
    #: Share of the median the value may move the wrong way before
    #: ``--agree`` calls it worse; ``None`` for per-layer metrics.
    bound: Optional[float] = None
    #: Absolute move allowed where it is larger than the relative bound.
    slack: float = 0.0
    workloads: Tuple[str, ...] = ALL_WORKLOADS
    note: str = ""


END_TO_END: Tuple[Metric, ...] = (
    Metric("host_pkts_per_s", "1/s", "host", "higher", 0.10,
           note="packets completed per second of reference-host time"),
    Metric("setup_s", "s", "host", "lower", 0.20, slack=0.05,
           note="import repro, compile, tables, plane/server, deploy"),
    Metric("peak_rss_mb", "MB", "host", "lower", 0.10,
           note="ru_maxrss of the repeat's process"),
    Metric("failed_share", "share", "count", "lower", 0.0, slack=0.001,
           note="failed / attempted packets"),
    Metric("model_p50_us", "us", "model", "lower", 0.01, workloads=DES),
    Metric("model_p99_us", "us", "model", "lower", 0.01, workloads=DES),
    Metric("model_max_mpps", "Mpps", "model", "higher", 0.01,
           workloads=WE_DES,
           note="highest rate with no loss, p99 <= 400 us, 99% delivered"),
    Metric("model_latency_cut_pct", "%", "model", "higher", 0.01,
           workloads=WE_DES, note="paper Fig.13: 35.9%"),
    Metric("model_copy_overhead_pct", "%", "model", "lower", 0.01,
           workloads=WE_DES, note="paper: 8.8%"),
    Metric("model_core_saving_pct", "%", "model", "higher", 0.01,
           workloads=FLASH),
)

#: End-to-end for the driver: on every workload, never zero.  Its bounds
#: are wider than ``--agree``'s because it has no "unresolved": a spread
#: across seeds wider than the bound rejects the benchmark outright, so
#: each is at least three times the widest spread measured (README).
DRIVER_END_TO_END = {"host_pkts_per_s": 0.22, "setup_s": 0.25,
                     "peak_rss_mb": 0.10}


def _layer(rows) -> Tuple[Metric, ...]:
    """Rows are (name, unit, clock, better[, workloads measured on])."""
    return tuple(Metric(name, unit, clock, better,
                        workloads=on[0] if on else ALL_WORKLOADS)
                 for name, unit, clock, better, *on in rows)


PER_LAYER: Tuple[Metric, ...] = _layer((
    ("traffic.gen_us_per_pkt", "us", "host", "lower"),
    ("traffic.pkts", "count", "count", "higher"),
    ("traffic.share", "share", "host", "lower"),
    ("net.crypto.aes_us_per_kib", "us", "host", "lower"),
    ("net.crypto.share", "share", "host", "lower"),
    ("net.fields.five_tuple_ns", "ns", "host", "lower"),
    ("net.fields.ipv4_view_ns", "ns", "host", "lower"),
    ("net.fields.checksum_ns", "ns", "host", "lower"),
    ("net.fields.share", "share", "host", "lower"),
    ("net.copy.header_ns", "ns", "host", "lower"),
    ("net.copy.full_ns", "ns", "host", "lower"),
    ("net.copy.copies_header", "count", "count", "lower"),
    ("net.copy.copies_full", "count", "count", "lower"),
    ("net.copy.bytes", "B", "count", "lower"),
    ("net.copy.share", "share", "host", "lower"),
    ("nfs.vpn.us_per_pkt", "us", "host", "lower", NS + FLASH),
    ("nfs.monitor.us_per_pkt", "us", "host", "lower", NS + WE_X4 + WE_DES),
    ("nfs.firewall.us_per_pkt", "us", "host", "lower", NS),
    ("nfs.loadbalancer.us_per_pkt", "us", "host", "lower", NS + WE_X4 + WE_DES),
    ("nfs.ids.us_per_pkt", "us", "host", "lower", WE_X4 + WE_DES),
    ("nfs.nat.us_per_pkt", "us", "host", "lower", FLASH),
    ("nfs.share", "share", "host", "lower"),
    ("nfs.errors", "count", "count", "lower"),
    ("nfs.drops", "count", "count", "lower"),
    ("core.compile_ms", "ms", "host", "lower"),
    ("core.build_tables_ms", "ms", "host", "lower"),
    ("core.closure_compile_ms", "ms", "host", "lower"),
    ("core.stages", "count", "count", "lower"),
    ("core.copies_planned", "count", "count", "lower"),
    ("dataplane.classify_ns", "ns", "host", "lower"),
    ("dataplane.walk_self_us_per_pkt", "us", "host", "lower"),
    ("dataplane.merge_us_per_pkt", "us", "host", "lower"),
    ("dataplane.share", "share", "host", "lower"),
    ("dataplane.calls_per_pkt", "count", "count", "lower"),
    ("dataplane.pkt_us_p50", "us", "host", "lower", FUNC),
    ("dataplane.pkt_us_p99", "us", "host", "lower", FUNC),
    ("dataplane.flow_cache_hit_ratio", "share", "count", "higher", WE_X4 + FLASH),
    ("dataplane.ct_walks", "count", "count", "lower", WE_X4),
    ("dataplane.batched_speedup", "x", "host", "higher", WE_X4),
    ("dataplane.ring_drops", "count", "count", "lower", DES),
    ("dataplane.ring_peak_occupancy", "share", "model", "lower", DES),
    ("dataplane.at_peak_depth", "count", "model", "lower", DES),
    ("dataplane.pool_in_use_at_drain", "count", "count", "lower", WE_DES),
    ("dataplane.flight_at_drain", "count", "count", "lower", DES),
    ("sim.events_per_pkt", "count", "count", "lower", DES),
    ("sim.ns_per_event", "ns", "host", "lower", DES),
    ("sim.bare_ns_per_event", "ns", "host", "lower"),
    ("sim.ring_op_ns", "ns", "host", "lower"),
    ("sim.share", "share", "host", "lower"),
    ("sim.calendar_vs_heap", "x", "host", "lower", WE_DES),
    ("telemetry.overhead_pct", "%", "host", "lower", WE_DES),
    ("telemetry.inc_ns", "ns", "host", "lower"),
    ("telemetry.spans", "count", "count", "lower", DES),
    ("telemetry.windows", "count", "count", "lower", FLASH),
    ("telemetry.share", "share", "host", "lower"),
    ("autoscale.scale_ups", "count", "model", "lower", FLASH),
    ("autoscale.scale_downs", "count", "model", "higher", FLASH),
    ("autoscale.moved_flows", "count", "model", "lower", FLASH),
    ("autoscale.rescale_host_ms", "ms", "host", "lower", FLASH),
    ("eval.p99_us_at_0.40", "us", "model", "lower", WE_DES),
    ("eval.p99_us_at_1.10", "us", "model", "lower", WE_DES),
    ("bench.calib_loop_s", "s", "host", "lower"),
    ("bench.raw_pkts_per_s", "1/s", "host", "higher"),
    ("bench.repeat_iqr_pct", "%", "host", "lower"),
    ("bench.noisy_repeats", "count", "count", "lower"),
    ("bench.model_repeat_mismatch", "count", "count", "lower"),
    ("trace.overhead_pct", "%", "host", "lower"),
    ("trace.spans", "count", "count", "lower"),
))

END_TO_END_NAMES = frozenset(m.name for m in END_TO_END)

#: What the traced child owes: the model-clock metrics and every
#: per-layer metric but ``bench.*`` (the parent derives those from the
#: timed repeats).
TRACED: Tuple[Metric, ...] = tuple(
    [m for m in END_TO_END if m.clock == "model"]
    + [m for m in PER_LAYER if not m.name.startswith("bench.")])
