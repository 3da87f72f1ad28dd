"""Exporters: JSON-lines, Chrome ``trace_event`` format, ASCII tables.

Three consumers, three formats:

* ``events_to_jsonl`` / ``events_from_jsonl`` -- a line-per-event dump
  for ad-hoc ``jq``/pandas analysis, loss-lessly round-trippable;
* ``to_chrome_trace`` / ``events_from_chrome_trace`` -- the Chrome
  ``trace_event`` JSON consumed by ``chrome://tracing`` and Perfetto:
  paired ``nf_start``/``nf_end`` become complete ("X") slices, every
  other span kind becomes an instant ("i") event.  The span kind rides
  in ``cat`` and the packet key in ``args`` so the import direction can
  reconstruct :class:`~repro.telemetry.tracer.SpanEvent` objects;
* ``nf_summary_table`` -- the per-NF ASCII summary the ``trace`` CLI
  prints (processed / dropped / errors / service-time percentiles);
* ``multiserver_summary_table`` -- per-server core utilisation and
  per-link occupancy from the ``multiserver.*`` gauge namespace that
  :func:`~repro.eval.harness.measure_placed` publishes off the timed
  pipeline, plus a fault run's ``placement.*`` ledger.
"""

from __future__ import annotations

import json
from typing import IO, Dict, Iterable, List, Union

from .metrics import MetricsRegistry
from .tracer import SpanEvent, SpanKind

__all__ = [
    "events_to_jsonl",
    "events_from_jsonl",
    "to_chrome_trace",
    "events_from_chrome_trace",
    "write_chrome_trace",
    "nf_summary_table",
    "multiserver_summary_table",
]


def events_to_jsonl(events: Iterable[SpanEvent], target: Union[str, IO]) -> int:
    """Write one JSON object per event; returns the number written."""
    own = isinstance(target, str)
    handle = open(target, "w") if own else target
    written = 0
    try:
        for event in events:
            handle.write(json.dumps(event.to_dict(), sort_keys=True))
            handle.write("\n")
            written += 1
    finally:
        if own:
            handle.close()
    return written


def events_from_jsonl(source: Union[str, IO]) -> List[SpanEvent]:
    """Inverse of :func:`events_to_jsonl`."""
    own = isinstance(source, str)
    handle = open(source) if own else source
    try:
        return [
            SpanEvent.from_dict(json.loads(line))
            for line in handle
            if line.strip()
        ]
    finally:
        if own:
            handle.close()


def to_chrome_trace(events: Iterable[SpanEvent]) -> Dict:
    """Render events as a Chrome ``trace_event`` document.

    Timestamps are already microseconds -- exactly Chrome's unit.  The
    trace viewer groups rows by (pid, tid): we map the service graph's
    MID to pid and the component name (NF, classifier, merger, ring) to
    an integer tid, emitting ``thread_name`` metadata ("M") events so
    each lane is labelled with the full component label -- including the
    scaled-instance (``name#k``) and restart (``name~rN``) suffixes,
    which keeps scaled/restarted runs readable in the viewer.
    """
    trace_events: List[Dict] = []
    open_starts: Dict[tuple, SpanEvent] = {}
    tids: Dict[str, int] = {}
    threads: set = set()  # (pid, tid, label) lanes actually used

    def lane(pid: int, label: str) -> int:
        tid = tids.setdefault(label, len(tids) + 1)
        threads.add((pid, tid, label))
        return tid

    for event in sorted(events, key=lambda ev: (ev.ts_us, ev.seq)):
        slot = (event.mid, event.pid, event.version, event.name)
        args = {"packet": event.pid, "version": event.version}
        if event.args:
            args.update(event.args)
        if event.kind is SpanKind.NF_START:
            open_starts[slot] = event
            continue
        if event.kind is SpanKind.NF_END:
            start = open_starts.pop(slot, None)
            begin = start.ts_us if start is not None else event.ts_us - event.duration_us
            trace_events.append({
                "name": event.name,
                "cat": SpanKind.NF_END.value,
                "ph": "X",
                "ts": begin,
                "dur": max(0.0, event.ts_us - begin),
                "pid": event.mid,
                "tid": lane(event.mid, event.name or "nf"),
                "args": args,
            })
            continue
        trace_events.append({
            "name": f"{event.kind.value}:{event.name}" if event.name else event.kind.value,
            "cat": event.kind.value,
            "ph": "i",
            "s": "p",
            "ts": event.ts_us,
            "pid": event.mid,
            "tid": lane(event.mid, event.name or event.kind.value),
            "args": args,
        })
    # Unmatched starts (packet still in flight at shutdown) surface as
    # zero-duration slices rather than vanishing.
    for start in open_starts.values():
        trace_events.append({
            "name": start.name,
            "cat": SpanKind.NF_END.value,
            "ph": "X",
            "ts": start.ts_us,
            "dur": 0.0,
            "pid": start.mid,
            "tid": lane(start.mid, start.name or "nf"),
            "args": {"packet": start.pid, "version": start.version,
                     "incomplete": True},
        })
    trace_events.sort(key=lambda entry: entry["ts"])
    metadata = [
        {
            "name": "thread_name",
            "ph": "M",
            "ts": 0.0,
            "pid": pid,
            "tid": tid,
            "args": {"name": label},
        }
        for pid, tid, label in sorted(threads)
    ]
    return {"traceEvents": metadata + trace_events, "displayTimeUnit": "ms"}


def events_from_chrome_trace(document: Dict) -> List[SpanEvent]:
    """Reconstruct span events from a Chrome trace document.

    "X" slices expand back into an ``nf_start``/``nf_end`` pair;
    instants map straight back through ``cat``.  Sequence numbers are
    regenerated, so round-tripping preserves kinds, names, packet keys
    and timestamps (the fields the analyses consume).
    """
    events: List[SpanEvent] = []
    for entry in document.get("traceEvents", []):
        if entry.get("ph") == "M":
            continue  # thread_name and friends carry no span payload
        kind = SpanKind(entry["cat"])
        args = dict(entry.get("args") or {})
        pid = int(args.pop("packet"))
        version = int(args.pop("version", 1))
        mid = int(entry["pid"])
        if entry["ph"] == "X":
            duration = float(entry.get("dur", 0.0))
            events.append(SpanEvent(SpanKind.NF_START, float(entry["ts"]), mid,
                                    pid, version, name=entry["name"]))
            events.append(SpanEvent(SpanKind.NF_END, float(entry["ts"]) + duration,
                                    mid, pid, version, name=entry["name"],
                                    duration_us=duration,
                                    args=args or None))
        else:
            name = entry["name"]
            prefix = f"{kind.value}:"
            if name.startswith(prefix):
                name = name[len(prefix):]
            elif name == kind.value:
                name = ""
            events.append(SpanEvent(kind, float(entry["ts"]), mid, pid, version,
                                    name=name, args=args or None))
    for seq, event in enumerate(sorted(events, key=lambda ev: ev.ts_us), start=1):
        event.seq = seq
    events.sort(key=lambda ev: (ev.ts_us, ev.seq))
    return events


def write_chrome_trace(events: Iterable[SpanEvent], path: str) -> int:
    """Serialise :func:`to_chrome_trace` to ``path``; returns event count."""
    document = to_chrome_trace(events)
    with open(path, "w") as handle:
        json.dump(document, handle)
    return len(document["traceEvents"])


def nf_summary_table(registry: MetricsRegistry) -> str:
    """Per-NF ASCII summary built from the ``nf.*`` metric namespace."""
    from ..eval.report import render_table  # local: avoids a package cycle

    names = sorted(
        name[len("nf."):-len(".rx")]
        for name in registry.counters
        if name.startswith("nf.") and name.endswith(".rx")
    )
    rows = []
    for name in names:
        histogram = registry.histograms.get(f"nf.{name}.service_us")
        if histogram is not None and histogram.count:
            mean = f"{histogram.mean:.2f}"
            p50 = f"{histogram.percentile(50):.2f}"
            p99 = f"{histogram.percentile(99):.2f}"
        else:
            mean = p50 = p99 = "-"
        rows.append([
            name,
            registry.counter_value(f"nf.{name}.rx"),
            registry.counter_value(f"nf.{name}.dropped"),
            registry.counter_value(f"nf.{name}.errors"),
            mean,
            p50,
            p99,
        ])
    return render_table(
        ["nf", "processed", "dropped", "errors", "svc mean us", "svc p50 us",
         "svc p99 us"],
        rows,
    )


def multiserver_summary_table(registry: MetricsRegistry) -> str:
    """Server/link ASCII summary from the ``multiserver.*`` namespace.

    One row per server (core-utilisation gauge) and one per linked
    server pair, e.g. ``s0-s1`` (frame/byte counters, wire-busy time and
    occupancy gauges),
    followed by any ``placement.*`` counters and gauges (a fault run's
    ledger, failovers and recovery time).  Returns ``""`` when no multiserver run
    has published anything, so callers can print it unconditionally.
    """
    from ..eval.report import render_table  # local: avoids a package cycle

    parts: List[str] = []
    server_prefix = "multiserver.server."
    server_suffix = ".core_util"
    gauges = registry.gauges
    servers = sorted(
        name[len(server_prefix):-len(server_suffix)]
        for name in gauges
        if name.startswith(server_prefix) and name.endswith(server_suffix)
    )
    if servers:
        parts.append(render_table(
            ["server", "core util %"],
            [[name,
              f"{gauges[server_prefix + name + server_suffix].value * 100:.1f}"]
             for name in servers],
        ))

    link_prefix = "multiserver.link."
    links = sorted(
        name[len(link_prefix):-len(".frames")]
        for name in registry.counters
        if name.startswith(link_prefix) and name.endswith(".frames")
    )
    if links:
        rows = []
        for pair in links:
            busy = gauges.get(f"{link_prefix}{pair}.busy_us")
            occupancy = gauges.get(f"{link_prefix}{pair}.occupancy")
            rows.append([
                pair,
                registry.counter_value(f"{link_prefix}{pair}.frames"),
                registry.counter_value(f"{link_prefix}{pair}.bytes"),
                f"{busy.value:.2f}" if busy is not None else "-",
                f"{occupancy.value * 100:.2f}" if occupancy is not None else "-",
            ])
        parts.append(render_table(
            ["link", "frames", "bytes", "busy us", "occupancy %"],
            rows,
        ))

    placement = {name: metric.value
                 for metrics in (registry.counters, gauges)
                 for name, metric in metrics.items()
                 if name.startswith("placement.")}
    if placement:
        parts.append(render_table(
            ["placement metric", "value"],
            [[name, value if isinstance(value, int) else f"{value:.1f}"]
             for name, value in sorted(placement.items())],
        ))
    return "\n".join(parts)
