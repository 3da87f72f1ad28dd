"""The NFP compiler: policies -> high-performance service graphs (§4.4).

Pipeline, mirroring Fig. 2:

1. **Transform** rules into intermediate representations: per-NF position
   pins and per-pair parallelism verdicts (Algorithm 1 output).
2. **Compile** the pair relation into a hard-dependency DAG: an ordered
   pair whose Algorithm 1 verdict is NOT_PARALLELIZABLE becomes a hard
   edge; parallelizable pairs stay soft (they only influence copy/merge
   decisions).  Pins translate to hard edges from/to every other NF.
   Unrelated NFs ("free NFs" and cross-micrograph pairs) are probed in
   both directions; when neither direction is parallelizable, they are
   sequenced in declaration order and the operator is warned (§4.4.3
   "network operators will be informed").
3. **Merge** into the final graph: longest-path layering of the hard DAG
   yields the stages; inside each stage, buffer sharing (OP#1) groups
   NFs onto versions -- readers keep the original version 1, conflicting
   writers get header-only copies (OP#2) unless they touch the payload.
   Finally the merging operations are derived from each copy version's
   writes, resolved by NF priority ("the NF with the back order is
   assigned a higher priority", §3).

The compiler's two optimisation goals are the paper's: "fully benefit
from the high performance brought by NF parallelism, while introducing
very little resource overhead" (§4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..net.fields import Field
from ..net.packet import PacketMeta
from .action_table import ActionTable, default_action_table
from .actions import ActionProfile
from .conflicts import check_policy
from .dependency import (
    ParallelismResult,
    can_share_buffer,
    encapsulates,
    identify_parallelism,
)
from .graph import (
    ORIGINAL_VERSION,
    CopySpec,
    MergeOp,
    MergeOpKind,
    NFNode,
    ServiceGraph,
    Stage,
    StageEntry,
)
from .policy import Policy, Position

__all__ = ["CompileError", "CompilationResult", "NFPCompiler", "compile_policy"]

#: Highest usable version number: the metadata version field is 4 bits
#: (§5.2) and versions are numbered from 1, so a graph can hold at most
#: 15 concurrent packet versions (v1 plus 14 copies).
MAX_VERSIONS = (1 << PacketMeta.VERSION_BITS) - 1


class CompileError(ValueError):
    """The policy compiles to a graph the dataplane cannot execute."""


class CompilationResult:
    """Graph plus the compiler's reasoning, for inspection and tests."""

    def __init__(
        self,
        graph: ServiceGraph,
        decisions: Dict[Tuple[str, str], ParallelismResult],
        warnings: List[str],
    ):
        self.graph = graph
        #: (before, after) -> Algorithm 1 verdict for every ordered pair
        #: the compiler analysed.
        self.decisions = decisions
        self.warnings = warnings

    def __repr__(self) -> str:
        return f"CompilationResult({self.graph.describe()})"


class NFPCompiler:
    """Compiles NFP policies into service graphs."""

    def __init__(self, action_table: Optional[ActionTable] = None):
        self.action_table = action_table or default_action_table()

    # ------------------------------------------------------------ pipeline
    def compile(self, policy: Policy) -> CompilationResult:
        """Run the full pipeline; raises on hard policy conflicts."""
        report = check_policy(policy)
        report.raise_on_error()
        warnings = list(report.warnings)

        names = self._declaration_order(policy)
        profiles = {n: self.action_table.fetch(policy.kind_of(n)) for n in names}

        closure = self._order_closure(policy, names)
        priority_pairs = {(r.high, r.low) for r in policy.priority_rules()}
        pins = self._pins(policy)

        hard_edges, decisions = self._hard_edges(
            names, profiles, closure, priority_pairs, pins, warnings
        )
        priorities = self._merge_priorities(names, closure, priority_pairs, pins)

        # NFs with downstream hard dependents must process version 1 (the
        # dependent consumes their output, which only version 1 carries
        # before the final merge).  Two such NFs that cannot share one
        # buffer therefore cannot share a stage: sequentialise them and
        # re-layer until stable.
        while True:
            levels = self._layer(names, hard_edges)
            added = self._sequentialise_v1_claimants(
                names, profiles, levels, hard_edges, priorities
            )
            if not added:
                break

        needs_v1 = {a for a, _ in hard_edges}
        nodes = {
            n: NFNode(n, policy.kind_of(n), profiles[n], priorities[n]) for n in names
        }
        stages, copies = self._assign_versions(names, nodes, levels, needs_v1)
        merge_ops = self._merge_ops(stages)

        graph = ServiceGraph(stages, copies, merge_ops, name=policy.name)
        return CompilationResult(graph, decisions, warnings)

    # ---------------------------------------------------------- sub-steps
    @staticmethod
    def _declaration_order(policy: Policy) -> List[str]:
        return list(policy.instances)

    @staticmethod
    def _order_closure(policy: Policy, names: Sequence[str]) -> Set[Tuple[str, str]]:
        """Transitive closure of the Order relation (Floyd-Warshall)."""
        reach: Set[Tuple[str, str]] = {
            (r.before, r.after) for r in policy.order_rules()
        }
        changed = True
        while changed:
            changed = False
            for a, b in list(reach):
                for c, d in list(reach):
                    if b == c and (a, d) not in reach and a != d:
                        reach.add((a, d))
                        changed = True
        return reach

    @staticmethod
    def _pins(policy: Policy) -> Dict[str, Position]:
        return {r.nf: r.position for r in policy.position_rules()}

    def _hard_edges(
        self,
        names: Sequence[str],
        profiles: Dict[str, ActionProfile],
        closure: Set[Tuple[str, str]],
        priority_pairs: Set[Tuple[str, str]],
        pins: Dict[str, Position],
        warnings: List[str],
    ) -> Tuple[Set[Tuple[str, str]], Dict[Tuple[str, str], ParallelismResult]]:
        hard: Set[Tuple[str, str]] = set()
        decisions: Dict[Tuple[str, str], ParallelismResult] = {}

        # A Priority rule declares the pair "directly parallelizable"
        # (§4.1); Algorithm 1 is only consulted for conflicting actions,
        # during version assignment -- unless an NF of the pair adds or
        # removes an encapsulating unit, which no merge reconciles with
        # a parallel NF's view of the inner packet.  Such a pair stays
        # sequential: Algorithm 1 decides an ordered one, and a free one
        # runs low first, so the high NF's effect wins.
        prioritised: Set[Tuple[str, str]] = set()
        sequenced: Set[Tuple[str, str]] = set()
        for high, low in priority_pairs:
            if not (encapsulates(profiles[high]) or encapsulates(profiles[low])):
                prioritised |= {(high, low), (low, high)}
            elif ((high, low) not in closure and (low, high) not in closure
                  and high not in pins and low not in pins):
                sequenced.add((low, high))
                warnings.append(
                    f"Priority({high} > {low}) cannot run an encapsulating NF "
                    f"in parallel; {low!r} sequenced before {high!r}")
        hard |= sequenced

        # Ordered pairs: Algorithm 1 decides hard vs soft.
        for before, after in closure:
            if (before, after) in prioritised:
                continue
            verdict = identify_parallelism(profiles[before], profiles[after])
            decisions[(before, after)] = verdict
            if not verdict.parallelizable:
                hard.add((before, after))

        # Position pins dominate everything.
        for nf, where in pins.items():
            for other in names:
                if other == nf:
                    continue
                if where is Position.FIRST:
                    hard.add((nf, other))
                else:
                    hard.add((other, nf))

        # Free / cross-micrograph pairs: probe both directions.
        related = (closure | {(b, a) for a, b in closure} | prioritised
                   | sequenced | {(b, a) for a, b in sequenced})
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                if (a, b) in related or a in pins or b in pins:
                    continue
                forward = identify_parallelism(profiles[a], profiles[b])
                decisions.setdefault((a, b), forward)
                if forward.parallelizable:
                    continue
                backward = identify_parallelism(profiles[b], profiles[a])
                decisions.setdefault((b, a), backward)
                if backward.parallelizable:
                    continue
                hard.add((a, b))
                warnings.append(
                    f"unordered NFs {a!r} and {b!r} are not parallelizable; "
                    "sequenced in declaration order -- consider an Order or "
                    "Priority rule"
                )
        return hard, decisions

    @staticmethod
    def _layer(names: Sequence[str], hard: Set[Tuple[str, str]]) -> Dict[str, int]:
        """Longest-path levels over the hard DAG (Kahn's algorithm)."""
        succs: Dict[str, List[str]] = {n: [] for n in names}
        indeg: Dict[str, int] = {n: 0 for n in names}
        for a, b in hard:
            succs[a].append(b)
            indeg[b] += 1
        level = {n: 0 for n in names}
        queue = [n for n in names if indeg[n] == 0]
        seen = 0
        while queue:
            node = queue.pop(0)
            seen += 1
            for nxt in succs[node]:
                level[nxt] = max(level[nxt], level[node] + 1)
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    queue.append(nxt)
        if seen != len(names):
            # check_policy rejects Order cycles; reaching this means pins
            # or free-NF sequencing built one, which is a real conflict.
            raise ValueError("dependency cycle while layering the service graph")
        return level

    @staticmethod
    def _merge_priorities(
        names: Sequence[str],
        closure: Set[Tuple[str, str]],
        priority_pairs: Set[Tuple[str, str]],
        pins: Dict[str, Position],
    ) -> Dict[str, int]:
        """Merge priority: later chain position wins; Priority rules override."""
        # Base: longest path through the full (soft+hard) order relation.
        succs: Dict[str, List[str]] = {n: [] for n in names}
        indeg: Dict[str, int] = {n: 0 for n in names}
        edges = set(closure)
        for nf, where in pins.items():
            for other in names:
                if other != nf:
                    edges.add((nf, other) if where is Position.FIRST else (other, nf))
        for a, b in edges:
            succs[a].append(b)
            indeg[b] += 1
        depth = {n: 0 for n in names}
        queue = [n for n in names if indeg[n] == 0]
        while queue:
            node = queue.pop(0)
            for nxt in succs[node]:
                depth[nxt] = max(depth[nxt], depth[node] + 1)
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    queue.append(nxt)
        # Scale so Priority bumps cannot collide with depth steps, then
        # enforce explicit Priority rules to a fixpoint (acyclic by
        # check_policy).
        priority = {n: depth[n] * (len(names) + 1) + i for i, n in enumerate(names)}
        for _ in range(len(priority_pairs) + 1):
            changed = False
            for high, low in priority_pairs:
                if priority[high] <= priority[low]:
                    priority[high] = priority[low] + 1
                    changed = True
            if not changed:
                break
        else:
            raise ValueError("could not satisfy Priority rules (cycle?)")
        return priority

    def _sequentialise_v1_claimants(
        self,
        names: Sequence[str],
        profiles: Dict[str, ActionProfile],
        levels: Dict[str, int],
        hard_edges: Set[Tuple[str, str]],
        priorities: Dict[str, int],
    ) -> bool:
        """Break same-stage conflicts between NFs that both need version 1.

        Returns True when a new hard edge was added (caller re-layers).
        """
        claimants = {a for a, _ in hard_edges}
        for level in set(levels.values()):
            members = sorted(
                (n for n in names if levels[n] == level and n in claimants),
                key=lambda n: priorities[n],
            )
            for i, first in enumerate(members):
                for second in members[i + 1:]:
                    if not can_share_buffer(profiles[first], profiles[second]):
                        hard_edges.add((first, second))
                        return True
        return False

    def _assign_versions(
        self,
        names: Sequence[str],
        nodes: Dict[str, NFNode],
        levels: Dict[str, int],
        needs_v1: Optional[Set[str]] = None,
    ) -> Tuple[List[Stage], List[CopySpec]]:
        """Group each stage's NFs onto packet versions (OP#1 + OP#2)."""
        needs_v1 = needs_v1 or set()
        stages: List[Stage] = []
        copies: List[CopySpec] = []
        next_version = ORIGINAL_VERSION + 1
        max_level = max(levels.values()) if levels else 0

        for level in range(max_level + 1):
            members = [n for n in names if levels[n] == level]
            if not members:
                continue
            # Version-1 claimants first (their output feeds later stages),
            # then readers, so the original buffer is held by NFs that do
            # not modify it; ties keep chain order.
            members.sort(
                key=lambda n: (
                    n not in needs_v1,
                    not nodes[n].profile.is_read_only,
                    nodes[n].priority,
                )
            )
            groups: List[Tuple[int, List[str]]] = []  # (version, members)
            trunk: List[str] = []  # version-1 group
            for name in members:
                profile = nodes[name].profile
                if all(
                    can_share_buffer(profile, nodes[m].profile) for m in trunk
                ):
                    trunk.append(name)
                    continue
                if name in needs_v1:
                    # The fixpoint in compile() sequentialises conflicting
                    # version-1 claimants, so this cannot be reached.
                    raise ValueError(
                        f"NF {name!r} feeds a later stage but cannot share "
                        "the original packet buffer"
                    )
                placed = False
                for version, group in groups:
                    if all(can_share_buffer(profile, nodes[m].profile)
                           for m in group):
                        group.append(name)
                        placed = True
                        break
                if not placed:
                    if next_version > MAX_VERSIONS:
                        # Without this check version numbers would wrap
                        # the 4-bit metadata field and silently collide.
                        raise CompileError(
                            f"graph needs more than {MAX_VERSIONS} concurrent "
                            f"packet versions; the metadata version field is "
                            f"{PacketMeta.VERSION_BITS} bits "
                            f"(versions 1..{MAX_VERSIONS})"
                            " -- split the policy into smaller micrographs"
                        )
                    groups.append((next_version, [name]))
                    next_version += 1

            entries = [StageEntry(nodes[n], ORIGINAL_VERSION) for n in trunk]
            stage_index = len(stages)
            for version, group in groups:
                touches_payload = any(
                    self._touches_payload(nodes[n].profile) for n in group
                )
                copies.append(
                    CopySpec(stage_index, version, header_only=not touches_payload)
                )
                entries.extend(StageEntry(nodes[n], version) for n in group)
            stages.append(Stage(entries))
        return stages, copies

    @staticmethod
    def _touches_payload(profile: ActionProfile) -> bool:
        fields = profile.reads | profile.writes
        return Field.PAYLOAD in fields or Field.WHOLE_PACKET in fields

    @staticmethod
    def _merge_ops(stages: Sequence[Stage]) -> List[MergeOp]:
        """Derive MOs from copy-version writes.

        A stage-k copy is cut from version 1 after every earlier stage
        ran on it, so a field's last-stage writer wins; priority only
        breaks ties inside one stage.
        """
        # field -> list of (stage index, priority, version) writers.
        writers: Dict[Field, List[Tuple[int, int, int]]] = {}
        adds: List[Tuple[int, Field, int]] = []
        removes: List[Tuple[int, Field, int]] = []
        for stage_index, stage in enumerate(stages):
            for entry in stage:
                profile = entry.node.profile
                for field in profile.writes:
                    writers.setdefault(field, []).append(
                        (stage_index, entry.node.priority, entry.version)
                    )
                for field in profile.adds:
                    adds.append((entry.node.priority, field, entry.version))
                for field in profile.removes:
                    removes.append((entry.node.priority, field, entry.version))

        ops: List[MergeOp] = []
        for field in sorted(writers, key=str):
            _, _, version = max(writers[field])
            if version != ORIGINAL_VERSION:
                ops.append(MergeOp(MergeOpKind.MODIFY, field, version))
        for _, field, version in sorted(adds):
            if version != ORIGINAL_VERSION:
                ops.append(MergeOp(MergeOpKind.ADD, field, version))
        for _, field, version in sorted(removes):
            if version != ORIGINAL_VERSION:
                ops.append(MergeOp(MergeOpKind.REMOVE, field))
        return ops


def compile_policy(policy: Policy) -> CompilationResult:
    """Convenience wrapper around :class:`NFPCompiler` over Table 2."""
    return NFPCompiler().compile(policy)
