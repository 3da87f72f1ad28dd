"""Packet-lifecycle tracing keyed by the 64-bit NFP metadata word.

Every packet in flight carries ``(MID, PID, version)`` (Fig. 5); the
:class:`Tracer` records typed :class:`SpanEvent` checkpoints against
that key so one packet's journey can be re-assembled *across branches
of the service graph* -- the original and its copy versions share a
``(MID, PID)`` and differ only in ``version``.  A span is stored as a
plain tuple row while the run records, and becomes a ``SpanEvent`` only
when something reads :attr:`Tracer.events`.

Event vocabulary (``SpanKind``):

``classify``
    the classifier tagged the metadata word and ran CT actions;
``enqueue``
    a reference was posted to a ring (NF rx, merger rx, or a
    cross-server link);
``nf_start`` / ``nf_end``
    an NF runtime dequeued / finished one packet;
``copy``
    a new version was materialised (OP#1 full or OP#2 header-only);
``merge_wait``
    the merger opened an accumulating-table entry (first notification);
``merge_apply``
    the rendezvous completed and merge operations ran;
``output``
    the frame cleared the TX NIC;
``drop``
    the packet (or the whole rendezvous) was discarded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["SpanKind", "SpanEvent", "PacketTrace", "Tracer"]


class SpanKind(str, Enum):
    CLASSIFY = "classify"
    ENQUEUE = "enqueue"
    NF_START = "nf_start"
    NF_END = "nf_end"
    COPY = "copy"
    MERGE_WAIT = "merge_wait"
    MERGE_APPLY = "merge_apply"
    OUTPUT = "output"
    DROP = "drop"


@dataclass
class SpanEvent:
    """One typed checkpoint in a packet's lifecycle."""

    kind: SpanKind
    ts_us: float
    mid: int
    pid: int
    version: int
    name: str = ""
    duration_us: float = 0.0
    seq: int = 0
    args: Optional[Dict] = None

    @property
    def key(self) -> Tuple[int, int]:
        """The per-packet trace key: (MID, PID), version-agnostic."""
        return (self.mid, self.pid)

    def to_dict(self) -> Dict:
        record = {
            "kind": self.kind.value,
            "ts_us": self.ts_us,
            "mid": self.mid,
            "pid": self.pid,
            "version": self.version,
            "name": self.name,
            "duration_us": self.duration_us,
            "seq": self.seq,
        }
        if self.args:
            record["args"] = self.args
        return record

    @classmethod
    def from_dict(cls, record: Dict) -> "SpanEvent":
        return cls(
            kind=SpanKind(record["kind"]),
            ts_us=float(record["ts_us"]),
            mid=int(record["mid"]),
            pid=int(record["pid"]),
            version=int(record["version"]),
            name=record.get("name", ""),
            duration_us=float(record.get("duration_us", 0.0)),
            seq=int(record.get("seq", 0)),
            args=record.get("args"),
        )


@dataclass
class PacketTrace:
    """All events of one (MID, PID), in causal order."""

    mid: int
    pid: int
    events: List[SpanEvent] = field(default_factory=list)

    def kinds(self) -> List[SpanKind]:
        return [event.kind for event in self.events]

    def by_kind(self, kind: SpanKind) -> List[SpanEvent]:
        return [event for event in self.events if event.kind is kind]

    def unmatched_starts(self) -> int:
        starts = len(self.by_kind(SpanKind.NF_START))
        ends = len(self.by_kind(SpanKind.NF_END))
        return max(0, starts - ends)

    @property
    def terminal(self) -> Optional[SpanEvent]:
        """The output/drop event closing the trace, if any."""
        for event in reversed(self.events):
            if event.kind in (SpanKind.OUTPUT, SpanKind.DROP):
                return event
        return None

    def is_complete(self) -> bool:
        """A complete lifecycle: classified and either emitted or dropped."""
        return bool(self.by_kind(SpanKind.CLASSIFY)) and self.terminal is not None


#: One stored span: ``(kind, ts_us, mid, pid, version, name, duration_us,
#: args)`` -- a :class:`SpanEvent`'s fields in order, without ``seq``.
SpanRow = Tuple[SpanKind, float, int, int, int, str, float, Optional[Dict]]


class Tracer:
    """Accumulates spans as tuple rows; bounded by ``max_events`` if given.

    Recording a span is one tuple and one ``append`` to :attr:`rows`
    (the hub appends there directly); :attr:`events` builds the
    :class:`SpanEvent` objects from the rows only when something reads
    them.  When the cap is hit, further spans are counted in
    ``overflow`` instead of being stored -- tests assert
    ``overflow == 0`` to prove no spans were lost.
    """

    def __init__(self, max_events: Optional[int] = None):
        self.max_events = max_events
        self.overflow = 0
        #: Stored spans in recording order.  Append-only between clears;
        #: an uncapped tracer's hub appends to this very list.
        self.rows: List[SpanRow] = []
        #: ``SpanEvent``s built so far for a prefix of ``rows``.
        self._events: List[SpanEvent] = []
        #: Spans stored before the last :meth:`clear`: ``seq`` keeps
        #: counting across a clear, as it always has.
        self._cleared = 0

    def __len__(self) -> int:
        return len(self.rows)

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
        rows = self.rows
        if self.max_events is not None and len(rows) >= self.max_events:
            self.overflow += 1
            return
        rows.append((kind, ts_us, mid, pid, version, name, duration_us, args))

    def load(self, events: Iterable[SpanEvent]) -> None:
        """Record ``events`` (e.g. read back from an export) as rows.

        Each one is stored as a newly recorded span: its ``seq`` is
        renumbered from this tracer's count and ``max_events`` applies.
        """
        for event in events:
            self.record(event.kind, event.ts_us, event.mid, event.pid,
                        event.version, event.name, event.duration_us,
                        event.args)

    @property
    def events(self) -> List[SpanEvent]:
        """Every stored span as a :class:`SpanEvent`, in recording order.

        Built lazily from :attr:`rows` and cached: a read builds only the
        rows stored since the previous read.  ``seq`` is 1-based and runs
        on across :meth:`clear`.  Treat the list as read-only.
        """
        events = self._events
        seq = self._cleared + len(events)
        for kind, ts_us, mid, pid, version, name, duration_us, args in (
                self.rows[len(events):]):
            seq += 1
            events.append(SpanEvent(kind, ts_us, mid, pid, version, name,
                                    duration_us, seq, args))
        return events

    def clear(self) -> None:
        # In place: the hub holds a reference to ``rows``.
        self._cleared += len(self.rows)
        self.rows.clear()
        self._events.clear()
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
