"""Critical-path latency attribution: *why* is p99 what it is.

:func:`~repro.telemetry.rollup.stage_rollup` sums time across *all*
branches of a parallelised graph, so for a fork of three NFs it counts
three service times even though only the slowest one gated the packet.
This module walks each :class:`~repro.telemetry.tracer.PacketTrace`'s
fork/merge structure and decomposes the packet's *end-to-end* latency
into the segments that actually sat on the critical path:

``classify``
    NIC arrival to classification done;
``copy``
    version materialisation (OP#1/OP#2) before the branches run;
``branch``
    the slowest parallel branch -- the sum of its NF service times
    (for a sequential segment this is just the chain's service time);
``branch_wait``
    critical-branch time that was *not* NF service: ring queueing and
    scheduling gaps inside the slowest branch;
``merge_wait``
    rendezvous wait at the accumulating table after the slowest branch
    finished (``merge_apply.args["wait_us"]`` overlapping the branch is
    hidden -- only the exposed remainder gates the packet);
``merge_apply``
    merge-operation execution;
``residual``
    whatever end-to-end time the spans do not explain (TX, link hops).

Per-packet results aggregate into a :class:`CritPathReport` -- mean and
tail attribution tables plus the per-segment split of the p99 cohort,
which is the "why is p99 what it is" answer the bench and ``monitor``
surfaces print: if ``merge_wait`` dominates the p99 cohort but not the
mean, the tail is rendezvous-bound (Fig. 13's transient story), not
service-bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .tracer import PacketTrace, SpanKind

__all__ = ["SEGMENT_NAMES", "CritPath", "CritPathReport", "critical_path",
           "critpath_report"]

#: Canonical segment order for tables and the bench JSON.
SEGMENT_NAMES = ("classify", "copy", "branch", "branch_wait",
                 "merge_wait", "merge_apply", "residual")


@dataclass
class CritPath:
    """One packet's end-to-end latency, decomposed along its gating path."""

    mid: int
    pid: int
    total_us: float
    segments: Dict[str, float] = field(
        default_factory=lambda: {name: 0.0 for name in SEGMENT_NAMES}
    )
    #: Name of the branch-gating NF chain, e.g. ``"ids"`` or ``"vpn+fw"``.
    gating_branch: str = ""
    dropped: bool = False

    @property
    def explained_us(self) -> float:
        return sum(v for k, v in self.segments.items() if k != "residual")


def _branch_windows(
    trace: PacketTrace,
) -> Dict[int, Tuple[float, float, float, str]]:
    """Per-version ``(first_start, last_end, service_us, label)``.

    A "branch" is everything one metadata version executed; the fork
    point materialised versions via ``copy`` events, so each version's
    NF spans form one parallel branch of the service graph.
    """
    windows: Dict[int, Tuple[float, float, float, List[str]]] = {}
    open_starts: Dict[Tuple[str, int], List[float]] = {}
    for event in trace.events:
        slot = (event.name, event.version)
        if event.kind is SpanKind.NF_START:
            open_starts.setdefault(slot, []).append(event.ts_us)
        elif event.kind is SpanKind.NF_END:
            stack = open_starts.get(slot)
            start = (stack.pop(0) if stack
                     else event.ts_us - event.duration_us)
            entry = windows.get(event.version)
            if entry is None:
                windows[event.version] = (
                    start, event.ts_us, event.duration_us, [event.name]
                )
            else:
                first, last, service, names = entry
                if event.name not in names:
                    names.append(event.name)
                windows[event.version] = (
                    min(first, start), max(last, event.ts_us),
                    service + event.duration_us, names,
                )
    return {
        version: (first, last, service, "+".join(names))
        for version, (first, last, service, names) in windows.items()
    }


def critical_path(trace: PacketTrace) -> Optional[CritPath]:
    """Decompose one trace; None when it never completed (no terminal)."""
    terminal = trace.terminal
    if terminal is None:
        return None
    classify_events = trace.by_kind(SpanKind.CLASSIFY)
    if not classify_events:
        return None
    classify = classify_events[0]
    ingress_us = float((classify.args or {}).get("ingress_us", classify.ts_us))
    total_us = terminal.ts_us - ingress_us
    if total_us < 0:
        return None

    path = CritPath(trace.mid, trace.pid, total_us,
                    dropped=terminal.kind is SpanKind.DROP)
    path.segments["classify"] = classify.ts_us - ingress_us

    # Copies happen at the fork point, before any branch runs: they all
    # gate the packet (the original waits for its clones to exist).
    copy_us = sum(ev.duration_us for ev in trace.by_kind(SpanKind.COPY))
    path.segments["copy"] = copy_us

    branches = _branch_windows(trace)
    branch_end = classify.ts_us + copy_us
    if branches:
        # The gating branch is the one finishing last -- the merger
        # cannot rendezvous before it.
        gating_version, (first, last, service, label) = max(
            branches.items(), key=lambda item: item[1][1]
        )
        path.gating_branch = label
        path.segments["branch"] = service
        # Inside the gating branch: elapsed wall time minus service is
        # queueing/scheduling wait, floored at 0 for robustness.
        elapsed = last - min(first, classify.ts_us + copy_us)
        path.segments["branch_wait"] = max(0.0, elapsed - service)
        branch_end = last

    merge_applies = trace.by_kind(SpanKind.MERGE_APPLY)
    merge_apply_us = 0.0
    exposed_wait_us = 0.0
    for event in merge_applies:
        merge_apply_us += event.duration_us
        # The AT entry opened at merge_start = apply_ts - wait; only the
        # wait *after* the slowest branch finished gates the packet.
        wait = float((event.args or {}).get("wait_us", 0.0))
        apply_start = event.ts_us - event.duration_us
        exposed = min(wait, max(0.0, apply_start - branch_end))
        exposed_wait_us += exposed
    path.segments["merge_wait"] = exposed_wait_us
    path.segments["merge_apply"] = merge_apply_us

    path.segments["residual"] = max(0.0, total_us - path.explained_us)
    return path


@dataclass
class CritPathReport:
    """Scenario-level aggregation of per-packet critical paths."""

    paths: List[CritPath] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.paths)

    def mean_segments(self) -> Dict[str, float]:
        return self._mean(self.paths)

    def tail_segments(self, pct: float = 99.0) -> Dict[str, float]:
        """Mean segment split of the packets at/above the pct latency."""
        cohort = self.tail_cohort(pct)
        return self._mean(cohort)

    def tail_cohort(self, pct: float = 99.0) -> List[CritPath]:
        if not self.paths:
            return []
        ordered = sorted(self.paths, key=lambda p: p.total_us)
        cut = min(len(ordered) - 1,
                  max(0, int(len(ordered) * pct / 100.0)))
        return ordered[cut:]

    @staticmethod
    def _mean(paths: List[CritPath]) -> Dict[str, float]:
        if not paths:
            return {name: 0.0 for name in SEGMENT_NAMES}
        acc = {name: 0.0 for name in SEGMENT_NAMES}
        for path in paths:
            for name in SEGMENT_NAMES:
                acc[name] += path.segments[name]
        return {name: acc[name] / len(paths) for name in SEGMENT_NAMES}

    def dominant_tail_segment(self, pct: float = 99.0) -> str:
        """The segment explaining most of the tail cohort's latency."""
        tail = self.tail_segments(pct)
        if not any(tail.values()):
            return ""
        return max(tail.items(), key=lambda item: item[1])[0]

    def tail_delta(self, pct: float = 99.0) -> Dict[str, float]:
        """Tail-minus-mean per segment: what makes the tail *different*.

        The segment with the largest positive delta is the attribution
        answer -- e.g. a big ``merge_wait`` delta says the p99 cohort
        lost its time at the rendezvous, not in NF service.
        """
        mean = self.mean_segments()
        tail = self.tail_segments(pct)
        return {name: tail[name] - mean[name] for name in SEGMENT_NAMES}

    def gating_branches(self) -> Dict[str, int]:
        """How often each branch label gated a packet."""
        counts: Dict[str, int] = {}
        for path in self.paths:
            if path.gating_branch:
                counts[path.gating_branch] = (
                    counts.get(path.gating_branch, 0) + 1
                )
        return counts

    def to_dict(self) -> Dict:
        """The report at its p99 tail."""
        return {
            "packets": self.count,
            "mean_us": self.mean_segments(),
            "p99_us": self.tail_segments(99.0),
            "tail_delta_us": self.tail_delta(99.0),
            "dominant_tail_segment": self.dominant_tail_segment(99.0),
            "gating_branches": self.gating_branches(),
        }

    def table(self, pct: float = 99.0) -> str:
        """Render the attribution table (mean vs tail vs delta)."""
        from ..eval.report import render_table  # local: avoid cycle

        mean = self.mean_segments()
        tail = self.tail_segments(pct)
        delta = self.tail_delta(pct)
        rows = []
        for name in SEGMENT_NAMES:
            if mean[name] == 0.0 and tail[name] == 0.0:
                continue
            rows.append([
                name,
                f"{mean[name]:.2f}",
                f"{tail[name]:.2f}",
                f"{delta[name]:+.2f}",
            ])
        header = ["segment", "mean us", f"p{pct:g} us", "tail delta us"]
        return render_table(header, rows)


def critpath_report(traces: Iterable[PacketTrace]) -> CritPathReport:
    """Aggregate the critical paths of a scenario's delivered packets."""
    report = CritPathReport()
    for trace in traces:
        path = critical_path(trace)
        if path is None or path.dropped:
            continue
        report.paths.append(path)
    return report
