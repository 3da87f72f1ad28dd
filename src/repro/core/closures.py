"""Install-time flattening of service graphs into per-stage programs.

NFP's per-packet semantics are fixed once a graph is compiled: which
copies are due at each stage's entry, which NFs run in the stage and on
which version, and what each NF's visit costs a packet's parse memo.
:class:`CompiledGraph` states that *once per install* as plain tuples,
so no per-packet path scans ``graph.copies`` or formats an instance
label.  It is the one routing artefact of a graph: the
functional plane executes the program, bound to its scale map, through
the one interpreter (:class:`repro.dataplane.functional.FunctionalDataplane`;
a cross-server slice is a graph of its own,
:func:`repro.core.partition.slice_subgraph`, run the same way); the DES
server, whose packets advance one NF completion at a time, reads the
*step table* beside the program -- per ``(stage, version)``: is it the
version's last stage, how many completions its barrier waits for, which
copies and rings come next -- so a completion is one lookup
(:class:`~repro.dataplane.chaining.ChainingManager` keeps one record per
MID, unbound: instance membership stays with the runtime groups).  The
paper's Forwarding Tables (Fig. 4) are a view of the step table,
:func:`table_view`, not a second copy of it.  The merge half of the
install-time work is :class:`repro.dataplane.merging.MergePlan`; the
performance lab times the one-argument constructor as
``core.closure_compile_ms``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..net.fields import Field
from ..net.packet import FORGET_KEY, FORGET_MEMO, KEEP_MEMO
from .actions import ActionProfile
from .graph import ORIGINAL_VERSION, CopySpec, ServiceGraph
from .tables import CTEntry

__all__ = ["CompiledGraph", "instance_labels", "table_view"]


def instance_labels(name: str, count: int) -> Tuple[str, ...]:
    """Labels of an NF's instances: the bare name, or ``name#k`` when
    replicated -- the one spelling every plane and telemetry use."""
    if count == 1:
        return (name,)
    return tuple(f"{name}#{k}" for k in range(count))


#: The fields a flow key is made of.
_KEY_FIELDS = frozenset((Field.SIP, Field.DIP, Field.SPORT, Field.DPORT))


def _memo_rule(profile: ActionProfile) -> int:
    """What a visit by an NF of ``profile`` may make stale: the key when
    it writes a key field, everything when it writes the whole packet.
    A header unit's add or remove needs no rule: its mover
    (``repro.net.ah`` / ``repro.net.encap``) drops the memo as it moves
    the bytes."""
    writes = profile.writes
    if Field.WHOLE_PACKET in writes:
        return FORGET_MEMO
    return FORGET_KEY if writes & _KEY_FIELDS else KEEP_MEMO


class CompiledGraph:
    """One service graph flattened into per-stage program tuples.

    ``scale`` (NF name -> instance count, default 1 each) binds every
    entry to its instance labels -- labels, never NF objects, so an
    instance may be replaced between two bursts without a rebind.
    Immutable: a membership change means a new ``CompiledGraph`` --
    but for ``merge_plan`` and ``merge_delay_us``, the installer's to
    fill: the chaining manager compiles the plan, the DES server
    attaches the delay its ``SimParams`` give a merge.
    """

    __slots__ = ("graph", "program", "steps", "by_nf", "stage0", "forget",
                 "total_count", "needs_merger", "merge_plan", "merge_delay_us")

    def __init__(self, graph: ServiceGraph,
                 scale: Optional[Mapping[str, int]] = None):
        self.graph = graph
        copies: List[List[CopySpec]] = [[] for _ in graph.stages]
        for spec in graph.copies:
            copies[spec.stage_index].append(spec)
        counts = scale or {}
        #: Per stage ``(copies, entries)``: the copy specs due at its entry
        #: and, per NF, ``(version, count, labels, entry)``, both in
        #: declaration order.
        self.program: Tuple[tuple, ...] = tuple(
            (tuple(due), tuple(
                (entry.version, len(labels), labels, entry)
                for entry in stage
                for labels in [instance_labels(
                    entry.node.name, counts.get(entry.node.name, 1))]))
            for due, stage in zip(copies, graph.stages))
        #: Per ``(stage, version)``, ``(last, fan_in, copies, targets)``:
        #: does the version end here; how many completions its barrier
        #: waits for; the copies due at the next stage's entry, each with
        #: the NF names it fans out to (cut from version 1 only); the
        #: next stage's NF names on this version.
        self.steps: Dict[Tuple[int, int], tuple] = {}
        #: NF name -> ``((stage, version), step)``: where a completion is.
        self.by_nf: Dict[str, Tuple[Tuple[int, int], tuple]] = {}
        for index, stage in enumerate(graph.stages):
            for version in stage.versions():
                last = index == graph.last_stage_of_version(version)
                due, targets = (), ()
                if not last:
                    following = graph.stages[index + 1]
                    targets = _names(following, version)
                    if version == ORIGINAL_VERSION:
                        due = tuple((spec, _names(following, spec.version))
                                    for spec in copies[index + 1])
                entries = stage.entries_on(version)
                key = (index, version)
                step = self.steps[key] = (last, len(entries), due, targets)
                for entry in entries:
                    self.by_nf[entry.node.name] = (key, step)
        #: The classifier's fan-out: ``(version, NF name)`` per stage-0
        #: entry, in version order, declaration order within one.
        self.stage0: Tuple[Tuple[int, str], ...] = tuple(
            (version, name) for version in sorted(graph.stages[0].versions())
            for name in _names(graph.stages[0], version))
        #: NF name -> the memo rule (``repro.net.packet.forget_memos``)
        #: both planes apply to the packets it takes, before its visit.
        self.forget: Dict[str, int] = {
            node.name: _memo_rule(node.profile) for node in graph.nodes()}
        self.total_count = graph.total_count
        self.needs_merger = graph.needs_merger
        self.merge_plan = None
        self.merge_delay_us: Optional[float] = None


def _names(stage, version: int) -> Tuple[str, ...]:
    return tuple(entry.node.name for entry in stage.entries_on(version))


def table_view(compiled: CompiledGraph,
               ct_entry: CTEntry) -> Tuple[str, Dict[str, str]]:
    """Fig. 4's tables for one install: its CT row and each NF's FT.

    Read off what the planes execute.  The classifier's entry actions
    are stage 0's copies and fan-out; an NF's FT is its completion's
    step: a version's last stage goes to the merger (or out, with no
    merger), any other stage cuts the copies due next and forwards to
    the next stage.  Returns the CT row and ``FT[nf]`` per NF name, as
    ``compile --verbose`` prints them.
    """
    def copy(spec: CopySpec) -> str:
        mode = "hdr" if spec.header_only else "full"
        return f"copy(v{ORIGINAL_VERSION}, v{spec.version}, {mode})"

    def distribute(version: int, names) -> str:
        return f"distribute(v{version}, {list(names)})"

    fanout: Dict[int, List[str]] = {}
    for version, name in compiled.stage0:
        fanout.setdefault(version, []).append(name)
    entry = [copy(spec) for spec in sorted(compiled.program[0][0],
                                           key=lambda spec: spec.version)]
    entry += [distribute(version, names) for version, names in fanout.items()]
    ct_row = (f"CTEntry(match={ct_entry.match!r}, mid={ct_entry.mid}, "
              f"count={compiled.total_count}, "
              f"mos={list(compiled.graph.merge_ops)}, "
              f"actions=[{', '.join(entry)}])")
    forwarding: Dict[str, str] = {}
    for _, entries in compiled.program:
        for *_, stage_entry in entries:
            name = stage_entry.node.name
            (_, version), (last, _, due, targets) = compiled.by_nf[name]
            if last:
                actions = [distribute(version, ["@merger"])
                           if compiled.needs_merger else f"output(v{version})"]
            else:
                actions = []
                for spec, names in sorted(due, key=lambda d: d[0].version):
                    actions += [copy(spec), distribute(spec.version, names)]
                if targets:
                    actions.append(distribute(version, targets))
            forwarding[name] = f"[{', '.join(actions)}]"
    return ct_row, forwarding
