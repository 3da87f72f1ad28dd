"""Service graph data model: the compiler's output artifact (§4.4).

A compiled :class:`ServiceGraph` arranges NF instances into ordered
*stages*.  All NFs inside one stage run in parallel; consecutive stages
are sequential (the *equivalent chain length* of §6.2.4 is the number of
stages).  Each NF is assigned a packet *version*:

* version 1 is the original packet;
* any other version is a header-only copy created the moment that
  version is first needed (§4.2 OP#2), carrying the writes of the NFs
  that conflict with version-1 processing.

Execution semantics (mirrors §5):

* refs of version ``v`` advance from stage ``s`` to stage ``s+1`` once
  every stage-``s`` NF assigned to ``v`` has finished (so a downstream
  writer can never race an in-stage reader of the same buffer);
* when a version has no NFs in any later stage, each of its final NFs
  independently notifies the merger (hence the Accumulating Table's
  *count* can exceed the number of *versions*, §5.3);
* the merger fires once ``total_count`` notifications arrive and applies
  the merging operations (MOs) to produce the output packet.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..net.fields import Field
from ..net.packet import HEADER_COPY_BYTES, Packet
from .actions import ActionProfile

__all__ = [
    "NFNode",
    "StageEntry",
    "Stage",
    "CopySpec",
    "MergeOpKind",
    "MergeOp",
    "ServiceGraph",
]

ORIGINAL_VERSION = 1


class NFNode:
    """One NF instance placed in a service graph."""

    __slots__ = ("name", "kind", "profile", "priority")

    def __init__(self, name: str, kind: str, profile: ActionProfile, priority: int = 0):
        self.name = name
        self.kind = kind
        self.profile = profile
        #: Merge priority: higher wins field conflicts.  Derived from the
        #: NF's position in the original chain order ("the NF with the
        #: back order is assigned a higher priority", §3) or from explicit
        #: Priority rules.
        self.priority = priority

    def __repr__(self) -> str:
        return f"NFNode({self.name}:{self.kind}, prio={self.priority})"


class StageEntry:
    """An NF running in a particular stage, on a particular version."""

    __slots__ = ("node", "version")

    def __init__(self, node: NFNode, version: int):
        if version < 1:
            raise ValueError("versions are numbered from 1")
        self.node = node
        self.version = version

    def __repr__(self) -> str:
        return f"{self.node.name}@v{self.version}"


class Stage:
    """A parallel block of stage entries; not mutated once built."""

    def __init__(self, entries: Sequence[StageEntry]):
        if not entries:
            raise ValueError("a stage needs at least one NF")
        names = [e.node.name for e in entries]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate NF in stage: {names}")
        self.entries = list(entries)
        self._by_version: Dict[int, List[StageEntry]] = {}
        for entry in self.entries:
            self._by_version.setdefault(entry.version, []).append(entry)

    def versions(self) -> Set[int]:
        return set(self._by_version)

    def entries_on(self, version: int) -> List[StageEntry]:
        """The stage's entries on ``version`` (a shared list: read only)."""
        return self._by_version.get(version, [])

    def __iter__(self) -> Iterator[StageEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"Stage({', '.join(map(repr, self.entries))})"


class CopySpec:
    """A packet copy: create ``version`` at the entry of ``stage_index``.

    ``header_only`` reflects OP#2: copies are 64-byte header copies
    unless some NF on the new version touches the payload.
    """

    __slots__ = ("stage_index", "version", "header_only")

    def __init__(self, stage_index: int, version: int, header_only: bool = True):
        self.stage_index = stage_index
        self.version = version
        self.header_only = header_only

    def make(self, base: Packet) -> Packet:
        """This version, taken from ``base``; a nil base stays nil."""
        if base.nil:
            return base.make_nil()
        if self.header_only:
            return base.header_copy(self.version, HEADER_COPY_BYTES)
        return base.full_copy(self.version)

    def __repr__(self) -> str:
        mode = "hdr" if self.header_only else "full"
        return f"Copy(v{self.version}@stage{self.stage_index},{mode})"


class MergeOpKind(enum.Enum):
    MODIFY = "modify"
    ADD = "add"
    REMOVE = "remove"


class MergeOp:
    """One merging operation (§5.3): modify / add / remove.

    * ``MODIFY``: overwrite ``field`` of v1 with the value from
      ``src_version``.
    * ``ADD``: splice the header unit ``field`` (e.g. the AH) from
      ``src_version`` into v1.
    * ``REMOVE``: delete the header unit ``field`` from v1.
    """

    __slots__ = ("kind", "field", "src_version")

    def __init__(self, kind: MergeOpKind, field: Field, src_version: Optional[int] = None):
        if kind in (MergeOpKind.MODIFY, MergeOpKind.ADD) and src_version is None:
            raise ValueError(f"{kind.value} needs a source version")
        self.kind = kind
        self.field = field
        self.src_version = src_version

    def __repr__(self) -> str:
        if self.kind is MergeOpKind.REMOVE:
            return f"remove(v1.{self.field})"
        return f"{self.kind.value}(v1.{self.field}, v{self.src_version}.{self.field})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MergeOp)
            and (self.kind, self.field, self.src_version)
            == (other.kind, other.field, other.src_version)
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.field, self.src_version))


class ServiceGraph:
    """The compiled service graph plus everything the dataplane needs.

    A graph and its stages are not mutated after construction (nothing
    under ``src/``, ``tests/``, ``benchmarks/`` or ``examples/`` does),
    so the facts derived from the stage lists -- versions, last stage
    per version, ``num_versions``, ``is_sequential``, ``total_count`` --
    are computed once here and the dataplanes read them per packet.
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        copies: Sequence[CopySpec] = (),
        merge_ops: Sequence[MergeOp] = (),
        name: str = "graph",
    ):
        if not stages:
            raise ValueError("a service graph needs at least one stage")
        self.name = name
        self.stages = list(stages)
        self.copies = list(copies)
        self.merge_ops = list(merge_ops)
        self._last_stage: Dict[int, int] = {}
        for index, stage in enumerate(self.stages):
            for version in stage.versions():
                self._last_stage[version] = index
        self._validate()
        #: The parallelism *copy degree* d of §6.3.1.
        self.num_versions = len(self._last_stage)
        #: True when every stage holds exactly one NF and only v1 exists.
        self.is_sequential = self.num_versions == 1 and all(
            len(stage) == 1 for stage in self.stages)
        #: The CT's 'Total Count': notifications the merger must collect.
        self.total_count = len(self.merger_notifications())

    def _validate(self) -> None:
        seen: Set[str] = set()
        for stage in self.stages:
            for entry in stage:
                if entry.node.name in seen:
                    raise ValueError(f"NF {entry.node.name} appears in two stages")
                seen.add(entry.node.name)
        copy_versions = {c.version for c in self.copies}
        if ORIGINAL_VERSION in copy_versions:
            raise ValueError("version 1 is the original and cannot be a copy")
        for version in self.versions():
            if version != ORIGINAL_VERSION and version not in copy_versions:
                raise ValueError(f"version {version} has no CopySpec")

    # ------------------------------------------------------------- queries
    def nodes(self) -> List[NFNode]:
        return [entry.node for stage in self.stages for entry in stage]

    def nf_names(self) -> List[str]:
        return [node.name for node in self.nodes()]

    def versions(self) -> Set[int]:
        return set(self._last_stage)

    @property
    def equivalent_length(self) -> int:
        """Number of sequential stages (§6.2.4's 'equivalent chain length')."""
        return len(self.stages)

    @property
    def has_parallelism(self) -> bool:
        return not self.is_sequential

    def last_stage_of_version(self, version: int) -> int:
        try:
            return self._last_stage[version]
        except KeyError:
            raise ValueError(f"version {version} never used") from None

    def merger_notifications(self) -> List[StageEntry]:
        """The stage entries that notify the merger (each version's final NFs)."""
        notifications: List[StageEntry] = []
        for version in sorted(self.versions()):
            last = self.last_stage_of_version(version)
            notifications.extend(self.stages[last].entries_on(version))
        return notifications

    @property
    def needs_merger(self) -> bool:
        """A strictly sequential graph bypasses the merger entirely (§6.2.1)."""
        return self.has_parallelism

    def stage_of(self, nf_name: str) -> Tuple[int, StageEntry]:
        for index, stage in enumerate(self.stages):
            for entry in stage:
                if entry.node.name == nf_name:
                    return index, entry
        raise KeyError(f"NF {nf_name!r} not in graph")

    def describe(self) -> str:
        """Human-readable structure, e.g. ``vpn -> (monitor | firewall) -> lb``."""
        parts: List[str] = []
        for stage in self.stages:
            labels = [
                e.node.name if e.version == ORIGINAL_VERSION else f"{e.node.name}[v{e.version}]"
                for e in stage
            ]
            parts.append(labels[0] if len(labels) == 1 else "(" + " | ".join(labels) + ")")
        return " -> ".join(parts)

    def __repr__(self) -> str:
        return f"ServiceGraph({self.name!r}: {self.describe()})"

    # --------------------------------------------------------- construction
    @classmethod
    def sequential(cls, nodes: Sequence[NFNode], name: str = "chain") -> "ServiceGraph":
        """A plain sequential chain (the traditional composition)."""
        stages = [Stage([StageEntry(node, ORIGINAL_VERSION)]) for node in nodes]
        return cls(stages, name=name)
