"""One repeat in a fresh interpreter (the parent spawns these one at a time).

``timed`` children produce the end-to-end numbers with tracing off;
the ``traced`` child produces the per-layer numbers.  Both print one JSON
object as their last line of output.  :mod:`repro` is imported inside
the set-up stopwatch, so this module must not import it at the top.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import resource
import statistics
import time
from typing import Dict, List, Optional

from .calib import Calibrator

__all__ = ["main"]

#: Packets of the traced repeat and of the exact call count, per workload.
TRACE_PACKETS = {"ns_dcmix_func": 60, "we_x4_64b_func": 3000,
                 "we_dcmix_des": 2000, "flash_crowd_des": 2000}
CALL_COUNT_PACKETS = {"ns_dcmix_func": 30, "we_x4_64b_func": 2000,
                      "we_dcmix_des": 2000, "flash_crowd_des": 2000}

#: Calibration ticks before and after set-up.  Set-up is one 0.15 s
#: import, so the ticks' own scatter is what its spread is made of: two
#: a side left it as wide as the raw stopwatch (12%), six halve it.
SETUP_TICKS = 6

#: Saturation search: absolute offered rates, 0.02 Mpps apart.
MAX_MPPS_LO, MAX_MPPS_STEP, MAX_MPPS_STEPS = 0.50, 0.02, 64
MAX_MPPS_P99_LIMIT_US = 400.0
#: Packets per probe, whatever the scale: a shorter probe cannot queue
#: for 400 us even at the top rate, so every rate would read as sustained.
MAX_MPPS_PROBE_PACKETS = 6000


def _budget(packets: int, scale: float, floor: int = 8) -> int:
    return max(floor, int(packets * scale))


def _nf_errors(rig) -> int:
    """Exceptions ``NetworkFunction.handle`` swallowed during the run."""
    return sum(nf.errors for nf in rig.nfs())


# ----------------------------------------------------------------- timed
def timed(spec: Dict) -> Dict:
    setup_cal = Calibrator()
    for _ in range(SETUP_TICKS):
        setup_cal.tick()
    t0 = time.perf_counter()
    from . import workloads as W  # imports repro: part of set-up

    workload = W.WORKLOADS[spec["workload"]]
    rig = W.build(workload)
    setup_raw = time.perf_counter() - t0
    for _ in range(SETUP_TICKS):
        setup_cal.tick()

    packets = _budget(workload.packets, spec["scale"])
    stream = (W.generate(workload, spec["seed"], packets)
              if workload.plane == "func" else None)
    gc.collect()
    gc.freeze()

    cal = Calibrator()
    res = W.run(workload, rig, spec["seed"], packets, cal, stream)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = res.failed + _nf_errors(rig)
    if spec["check"] and workload.plane == "func":
        failed += W.oracle(workload, spec["seed"], packets, res.outputs)
    return {
        "workload": workload.name,
        "offered": res.offered,
        "failed": failed,
        "work_s": res.work_s,
        "calib_s": cal.mean(),
        "setup_raw_s": setup_raw,
        "setup_calib_s": setup_cal.mean(),
        "rss_mb": rss_mb,
        "model": res.model,
        "counters": res.counters,
    }


# ---------------------------------------------------------------- traced
class _NoCalibration:
    """Stands in for a Calibrator in the traced child.

    Its runs are compared with each other, not put on the reference
    host, and a tick inside a span or a call count would be measured as
    if it were the program's own work.
    """

    def tick(self) -> None:
        pass


def _prepare(W, workload, seed, packets, **build_kwargs):
    """A fresh rig and (func planes) its pre-generated stream."""
    rig = W.build(workload, **build_kwargs)
    stream = (W.generate(workload, seed, packets)
              if workload.plane == "func" else None)
    return rig, stream


def _plain_run(W, workload, seed, packets, **build_kwargs):
    """Build a fresh rig and run ``packets`` through it, untraced."""
    rig, stream = _prepare(W, workload, seed, packets, **build_kwargs)
    res = W.run(workload, rig, seed, packets, _NoCalibration(), stream)
    return rig, res


def _per_packet_us(W, workload, seed, packets) -> Optional[List[float]]:
    """Closed-loop host time of each ``process`` call (func planes)."""
    if workload.plane != "func":
        return None
    rig, stream = _prepare(W, workload, seed, packets)
    process = rig.plane.process
    samples = []
    for pkt in stream:
        t0 = time.perf_counter()
        process(pkt)
        samples.append((time.perf_counter() - t0) * 1e6)
    return samples


def _max_mpps(W, workload, seed) -> float:
    """Highest absolute offered rate the DES sustains (bisection).

    Sustained: zero loss, p99 <= 400 us, delivered >= 0.99 x offered.
    An answer at either end of the searched range is probed itself, and
    the range no longer holding the answer is an error, not a clamp.
    """
    def sustained(rate: float) -> bool:
        probe = dataclasses.replace(workload, rate_mpps=rate)
        rig, res = _plain_run(W, probe, seed, MAX_MPPS_PROBE_PACKETS)
        return (res.failed == 0 and rig.server.lost == 0
                and res.model["model_p99_us"] <= MAX_MPPS_P99_LIMIT_US
                and rig.server.rate.delivered >= 0.99 * res.offered)

    def rate_of(step: int) -> float:
        return MAX_MPPS_LO + step * MAX_MPPS_STEP

    lo, hi = 0, MAX_MPPS_STEPS  # lo sustained, hi not: checked below
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sustained(rate_of(mid)):
            lo = mid
        else:
            hi = mid
    if lo == 0 and not sustained(rate_of(0)):
        raise RuntimeError(f"saturation is below {rate_of(0):.2f} Mpps, "
                           f"the bottom of the searched range")
    if hi == MAX_MPPS_STEPS and sustained(rate_of(hi)):
        raise RuntimeError(f"saturation is above {rate_of(hi):.2f} Mpps, "
                           f"the top of the searched range")
    return rate_of(lo)


def _rescale_host_ms(W, seed: int) -> float:
    """Mean host ms of one live membership change (1>2>4>1, 256 flows)."""
    from repro.core.orchestrator import Orchestrator
    from repro.core.policy import Policy
    from repro.dataplane.server import NFPServer
    from repro.sim import DEFAULT_PARAMS, Environment
    from repro.traffic.generator import FlowGenerator, TrafficSource

    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS, flow_cache_size=4096)
    server.deploy(Orchestrator().deploy(Policy.from_chain(list(W.ELASTIC))))
    server.enable_flow_directory()
    TrafficSource(env, server.inject, 0.5, 512, seed=seed,
                  flows=FlowGenerator(num_flows=256, sizes=W.FIXED_64, seed=seed))
    env.run()
    samples = []
    for count in (2, 4, 1):
        t0 = time.perf_counter()
        server.request_rescale("vpn", count)
        env.run()
        samples.append((time.perf_counter() - t0) * 1e3)
    return sum(samples) / len(samples)


def _batched(W, workload, seed, packets) -> Dict[str, float]:
    """BatchedDataplane vs functional on this workload's stream."""
    from repro.dataplane.batched import BatchedDataplane

    rig, stream = _prepare(W, workload, seed, packets)
    t0 = time.perf_counter()
    rig.plane.process_many(stream)
    scalar_s = time.perf_counter() - t0
    batched = BatchedDataplane(rig.graph, scale=workload.scale)
    stream = W.generate(workload, seed, packets)
    t0 = time.perf_counter()
    batched.process_many(stream)
    batched_s = time.perf_counter() - t0
    cache = batched.flow_cache
    return {
        "dataplane.batched_speedup": scalar_s / batched_s,
        "dataplane.ct_walks": float(batched.ct_walks),
        "dataplane.flow_cache_hit_ratio":
            cache.hits / max(1, cache.hits + cache.misses),
    }


def traced(spec: Dict) -> Dict:
    from . import workloads as W
    from .catalog import TRACED
    from .layers import micro_timings, optional
    from .spans import LAYERS, SpanRecorder, count_calls, install_wrappers
    from repro.core.orchestrator import Orchestrator
    from repro.core.policy import Policy
    from repro.core.tables import build_tables
    from repro.sim import SimulationError
    from repro.traffic.generator import FlowGenerator

    workload = W.WORKLOADS[spec["workload"]]
    seed, scale = spec["seed"], spec["scale"]
    name = workload.name
    packets = _budget(TRACE_PACKETS[name], scale)
    m: Dict[str, Optional[float]] = {}

    # -- core: the set-up steps, timed one by one.
    policy = Policy.from_chain(list(workload.chain))
    t0 = time.perf_counter()
    graph = Orchestrator().compile(policy).graph
    m["core.compile_ms"] = (time.perf_counter() - t0) * 1e3
    t0 = time.perf_counter()
    build_tables(graph, 1)
    m["core.build_tables_ms"] = (time.perf_counter() - t0) * 1e3
    m["core.stages"] = float(len(graph.stages))
    m["core.copies_planned"] = float(len(graph.copies))

    # -- traffic: the generator on its own.
    flows = FlowGenerator(num_flows=workload.flows, sizes=workload.sizes,
                          seed=seed, popularity=workload.popularity)
    count = min(2000, _budget(workload.packets, scale))
    t0 = time.perf_counter()
    flows.packets(count)
    m["traffic.gen_us_per_pkt"] = (time.perf_counter() - t0) * 1e6 / count

    # -- untraced then traced repeat on the same budget.
    gc.collect()
    plain_rig, plain = _plain_run(W, workload, seed, packets)
    rig, stream = _prepare(W, workload, seed, packets)
    rec = SpanRecorder()
    copy_bytes = [0]
    install_wrappers(rec, copy_bytes)
    try:
        res = W.run(workload, rig, seed, packets, _NoCalibration(), stream)
    finally:
        rec.uninstall()
    m["trace.overhead_pct"] = 100.0 * (res.work_s / plain.work_s - 1.0)
    m["trace.spans"] = float(len(rec.spans))
    m["traffic.pkts"] = float(res.offered)

    table = rec.by_name()
    shares = rec.layer_shares()
    for layer in LAYERS:
        m[f"{layer}.share"] = shares[layer]

    def row(span: str):
        """(calls, total seconds, self seconds) of one span name."""
        return table.get(span, (0, 0.0, 0.0))

    def total_us(span: str) -> float:
        return row(span)[1] * 1e6

    def calls(span: str) -> int:
        return row(span)[0]

    for kind in workload.chain:
        n = calls(f"nfs.{kind}")
        if not n:
            raise RuntimeError(f"{name}: no nfs.{kind} span was recorded")
        m[f"nfs.{kind}.us_per_pkt"] = total_us(f"nfs.{kind}") / n
    m["nfs.errors"] = float(_nf_errors(rig))
    m["nfs.drops"] = float(sum(nf.dropped_packets for nf in rig.nfs()))
    m["net.copy.copies_header"] = float(calls("net.copy.header"))
    m["net.copy.copies_full"] = float(calls("net.copy.full"))
    m["net.copy.bytes"] = float(copy_bytes[0])
    walk_self = sum(row(span)[2] for span in
                    ("dataplane.walk", "dataplane.inject",
                     "dataplane.classify", "dataplane.assign"))
    m["dataplane.walk_self_us_per_pkt"] = walk_self * 1e6 / res.offered
    m["dataplane.merge_us_per_pkt"] = total_us("dataplane.merge") / res.offered

    # -- exact call count over a fixed slice.
    call_packets = _budget(CALL_COUNT_PACKETS[name], scale)
    call_rig, call_stream = _prepare(W, workload, seed, call_packets)
    total_calls = count_calls(lambda: W.run(
        workload, call_rig, seed, call_packets, _NoCalibration(), call_stream))
    m["dataplane.calls_per_pkt"] = total_calls / call_packets

    samples = _per_packet_us(W, workload, seed, packets)
    if samples:
        samples.sort()
        m["dataplane.pkt_us_p50"] = statistics.median(samples)
        m["dataplane.pkt_us_p99"] = samples[int(0.99 * (len(samples) - 1))]

    # -- drain-time counters and model numbers come from a full-budget
    #    untraced run on the timed planes.
    full = _budget(workload.packets, scale)
    failed, offered = res.failed + _nf_errors(rig), res.offered
    model = None
    if workload.plane != "func":
        full_rig, full_res = _plain_run(W, workload, seed, full)
        failed += full_res.failed + _nf_errors(full_rig)
        offered += full_res.offered
        model = full_res.model
        m.update(full_res.counters)
        m.update(model)
        events = full_res.counters["sim.events"]
        m["sim.events_per_pkt"] = events / full_res.offered
        m["sim.ns_per_event"] = full_res.work_s * 1e9 / events

    if name == "we_x4_64b_func":
        m.update(optional(lambda: _batched(W, workload, seed, packets))
                 or {"dataplane.batched_speedup": None,
                     "dataplane.ct_walks": None,
                     "dataplane.flow_cache_hit_ratio": None})

    if name == "we_dcmix_des":
        on_rig, on = _plain_run(W, workload, seed, packets, telemetry=True)
        m["telemetry.overhead_pct"] = 100.0 * (on.work_s / plain.work_s - 1.0)
        m["telemetry.spans"] = float(len(on_rig.hub.tracer))

        def calendar() -> float:
            _rig, cal_res = _plain_run(W, workload, seed, packets,
                                       scheduler="calendar")
            return cal_res.work_s / plain.work_s
        m["sim.calendar_vs_heap"] = optional(calendar, SimulationError)

        sequential = W.sequential_des(workload, seed, full)
        m["model_latency_cut_pct"] = 100.0 * (
            1.0 - model["model_mean_us"] / sequential["mean_us"])
        m["model_max_mpps"] = _max_mpps(W, workload, seed)
        for rate in (0.40, 1.10):
            probe = dataclasses.replace(workload, rate_mpps=rate)
            _rig, probe_res = _plain_run(W, probe, seed, full)
            m[f"eval.p99_us_at_{rate:.2f}"] = probe_res.model["model_p99_us"]

    if name == "flash_crowd_des":
        m["autoscale.rescale_host_ms"] = _rescale_host_ms(W, seed)

    m.update(micro_timings(scale))
    for metric in TRACED:
        if name not in metric.workloads:
            m.setdefault(metric.name, 0.0)
    missing = [metric.name for metric in TRACED if metric.name not in m]
    if missing:
        raise RuntimeError(f"{name}: not measured: {missing}")

    trace_file = spec.get("trace_file")
    if trace_file:
        rec.write_chrome_trace(trace_file, name)
    return {
        "workload": name,
        "offered": offered,
        "failed": failed,
        "model": model,
        "metrics": {metric.name: m[metric.name] for metric in TRACED},
        "top_spans": [list(row) for row in rec.top()],
    }


def main(spec_text: str) -> int:
    spec = json.loads(spec_text)
    result = timed(spec) if spec["mode"] == "timed" else traced(spec)
    print(json.dumps(result))
    return 0
