"""Micro-timings of public functions, one layer at a time, from outside.

Each probe times a fixed number of calls in five batches and reports the
median batch, raw (``bench.calib_loop_s`` is published beside them for
anyone who wants them on the reference host).  Probes that touch a path
the pay-for-itself audit may delete return ``None`` when the class or
flag is gone, so deleting the path never means editing the benchmark.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Optional, TypeVar

__all__ = ["micro_timings", "optional"]

BATCHES = 5
T = TypeVar("T")


def _per_call(func: Callable[[], object], calls: int) -> float:
    """Median seconds per call of ``func`` over ``BATCHES`` batches."""
    samples = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(calls):
            func()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def optional(probe: Callable[[], T], *gone: type) -> Optional[T]:
    """Run ``probe``; ``None`` when the path it measures no longer exists.

    A deleted class shows as ``ImportError``/``AttributeError``, a
    deleted flag as ``TypeError``; ``gone`` adds the exception the repo
    raises for a value it no longer accepts.
    """
    try:
        return probe()
    except (ImportError, AttributeError, TypeError) + gone:
        return None


def micro_timings(scale: float = 1.0) -> Dict[str, float]:
    """Workload-independent per-layer timings (ns or us as named)."""
    from repro.core.closures import CompiledGraph
    from repro.core.orchestrator import Orchestrator
    from repro.core.policy import Policy
    from repro.core.tables import build_tables
    from repro.dataplane.chaining import ChainingManager
    from repro.net.checksum import internet_checksum
    from repro.net.crypto import aes_ctr_transform
    from repro.net.packet import build_packet
    from repro.sim import Environment, Ring
    from repro.telemetry.hooks import TelemetryHub

    def n(calls: int) -> int:
        return max(3, int(calls * scale))

    out: Dict[str, float] = {}
    key, data = bytes(range(16)), bytes(1024)
    out["net.crypto.aes_us_per_kib"] = 1e6 * _per_call(
        lambda: aes_ctr_transform(key, 7, data), n(6))

    small = build_packet(size=64)
    mixed = build_packet(size=724)
    header = bytes(small.buf[14:34])
    out["net.fields.five_tuple_ns"] = 1e9 * _per_call(small.five_tuple, n(4000))
    out["net.fields.ipv4_view_ns"] = 1e9 * _per_call(
        lambda: small.ipv4.src_ip, n(4000))
    out["net.fields.checksum_ns"] = 1e9 * _per_call(
        lambda: internet_checksum(header), n(4000))
    out["net.copy.header_ns"] = 1e9 * _per_call(
        lambda: mixed.header_copy(2), n(3000))
    out["net.copy.full_ns"] = 1e9 * _per_call(
        lambda: mixed.full_copy(2), n(3000))

    graph = Orchestrator().compile(
        Policy.from_chain(["ids", "monitor", "loadbalancer"])).graph
    chaining = ChainingManager()
    chaining.install(build_tables(graph, 1))
    flow = small.five_tuple()
    out["dataplane.classify_ns"] = 1e9 * _per_call(
        lambda: chaining.classify(flow), n(4000))
    out["core.closure_compile_ms"] = 1e3 * _per_call(
        lambda: CompiledGraph(graph), n(200))

    def bare_events() -> None:
        env = Environment()
        for i in range(1000):
            env.timeout(float(i))
        env.run()

    out["sim.bare_ns_per_event"] = 1e9 * _per_call(bare_events, n(6)) / 1000

    env = Environment()
    ring = Ring(env, 1024, name="lab")

    def ring_ops() -> None:
        ring.try_put(small)
        ring.get_batch(1)

    out["sim.ring_op_ns"] = 1e9 * _per_call(ring_ops, n(4000)) / 2

    hub = TelemetryHub()
    out["telemetry.inc_ns"] = 1e9 * _per_call(
        lambda: hub.inc("lab.counter"), n(4000))
    return out
