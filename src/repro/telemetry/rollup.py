"""Stage attribution: where a run's simulated time went, per span kind.

The bench subsystem (``repro.bench``) wants one compact answer per
scenario: *which stage of the NFP pipeline dominates* -- classification,
NF processing, packet copying, the merger's rendezvous wait, or the
merge application itself.  Every one of those quantities is already
carried on the tracer's span events in a self-contained way (each event
records its own duration or, for ``classify``, its distance from the
NIC ingress timestamp in ``args``), so the rollup is a single pass over
the event list with no cross-event pairing.  That makes it safe to roll
up event streams where packet keys collide -- e.g. the fuzz-corpus
replay, where every case restarts MIDs/PIDs from scratch.

Stage vocabulary (the keys of :attr:`StageRollup.times_us`):

``classify``
    NIC arrival to classification done (``classify.ts - ingress_us``);
``ft``
    NF service time (``nf_end.duration_us`` -- the per-packet function
    time, FT-table actions included);
``copy``
    OP#1/OP#2 copy materialisation cost (``copy.duration_us``);
``merge_wait``
    rendezvous wait from the accumulating-table entry opening to the
    last notification arriving (``merge_apply.args["wait_us"]``);
``merge_apply``
    merge-operation execution plus rendezvous bookkeeping latency
    (``merge_apply.duration_us``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

from .tracer import SpanEvent, SpanKind

__all__ = ["STAGE_NAMES", "StageRollup", "stage_rollup"]

#: Canonical stage order, used by reports and the bench JSON schema.
STAGE_NAMES = ("classify", "ft", "copy", "merge_wait", "merge_apply")


@dataclass
class StageRollup:
    """Summed per-stage simulated time plus contributing event counts."""

    times_us: Dict[str, float] = field(
        default_factory=lambda: {name: 0.0 for name in STAGE_NAMES}
    )
    events: Dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in STAGE_NAMES}
    )

    @property
    def total_us(self) -> float:
        return sum(self.times_us.values())

    def shares(self) -> Dict[str, float]:
        """Per-stage fraction of the total attributed time.

        Stages that accumulated nothing stay at 0.0; an entirely empty
        rollup returns all-zero shares rather than dividing by zero.
        """
        total = self.total_us
        if total <= 0.0:
            return {name: 0.0 for name in STAGE_NAMES}
        return {name: self.times_us[name] / total for name in STAGE_NAMES}

    def add(self, stage: str, duration_us: float) -> None:
        if stage not in self.times_us:
            raise KeyError(f"unknown stage {stage!r}")
        if duration_us < 0.0:
            return
        self.times_us[stage] += duration_us
        self.events[stage] += 1

    def merge(self, other: "StageRollup") -> "StageRollup":
        for name in STAGE_NAMES:
            self.times_us[name] += other.times_us.get(name, 0.0)
            self.events[name] += other.events.get(name, 0)
        return self

    def __str__(self) -> str:
        shares = self.shares()
        parts = ", ".join(
            f"{name}={self.times_us[name]:.1f}us ({shares[name] * 100:.0f}%)"
            for name in STAGE_NAMES
            if self.events[name]
        )
        return f"StageRollup(total={self.total_us:.1f}us: {parts or 'empty'})"


def stage_rollup(events: Iterable[SpanEvent]) -> StageRollup:
    """Fold span events into a :class:`StageRollup` (one pass, no pairing)."""
    rollup = StageRollup()
    for event in events:
        if event.kind is SpanKind.CLASSIFY:
            ingress = (event.args or {}).get("ingress_us")
            if ingress is not None:
                rollup.add("classify", event.ts_us - float(ingress))
        elif event.kind is SpanKind.NF_END:
            rollup.add("ft", event.duration_us)
        elif event.kind is SpanKind.COPY:
            rollup.add("copy", event.duration_us)
        elif event.kind is SpanKind.MERGE_APPLY:
            wait = (event.args or {}).get("wait_us")
            if wait is not None:
                rollup.add("merge_wait", float(wait))
            rollup.add("merge_apply", event.duration_us)
    return rollup
