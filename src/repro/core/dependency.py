"""Action dependency analysis: Table 3 and Algorithm 1 (§4.1-§4.3).

Given ``Order(NF1, before, NF2)``, the orchestrator decides whether the
two NFs can run in parallel and whether doing so requires a packet copy,
using the *result correctness principle*: parallel execution must yield
the same processed packet and NF internal state as sequential execution.

The dependency table (DT) below encodes Table 3, one cell per ordered
verb pair.  Two cells -- (Read, Write) and (Write, Write) -- are
field-sensitive: they need a copy only when both actions touch the same
field (OP#1 *Dirty Memory Reusing*); Algorithm 1 special-cases them
before consulting the DT, exactly as in the paper's pseudocode.

Cell rationale (reconstructed from the paper's prose and its Fig. 13
outputs):

* ``(Write, Read)`` is never parallelizable: the operator intends NF1's
  modification to reach NF2.
* ``(Add/Rm, *)`` is never parallelizable: a structural change by NF1 is
  meant to be visible downstream (e.g. a VPN header must be present when
  later NFs run).
* ``(Drop, Write)``/``(Drop, Add/Rm)`` are not parallelizable: a writer
  (e.g. a NAT allocating bindings) must not act on a packet an upstream
  NF would have dropped -- this is what keeps the Fig. 13 north-south
  load balancer sequential after the firewall.
* ``(Drop, Read)`` *is* parallelizable without copy: the paper
  explicitly parallelizes Firewall and Monitor (Fig. 1, Fig. 13) and
  resolves the drop through nil packets at the merger.
* ``(Read, Add/Rm)`` / ``(Write, Add/Rm)`` parallelize with a copy: the
  structural change happens on NF2's own version and the merger splices
  the added header into the final packet.  This only holds for units the
  field accessors parse *through* (AH, the VLAN tag); add/remove of an
  encapsulating outer stack (VXLAN) re-homes every field referent and is
  never parallelizable, in either direction (see
  :attr:`repro.net.fields.Field.is_encapsulating`).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

from .actions import Action, ActionProfile, Verb

__all__ = [
    "Parallelism",
    "DependencyTable",
    "ParallelismResult",
    "identify_parallelism",
    "can_share_buffer",
    "DEFAULT_DEPENDENCY_TABLE",
]


class Parallelism(enum.Enum):
    """Outcome classes of Table 3."""

    NOT_PARALLELIZABLE = "not_parallelizable"
    NO_COPY = "parallelizable_no_copy"
    WITH_COPY = "parallelizable_with_copy"


_NC = Parallelism.NO_COPY
_C = Parallelism.WITH_COPY
_NP = Parallelism.NOT_PARALLELIZABLE

#: Sentinel for the two field-sensitive cells Algorithm 1 handles inline.
_FIELD_SENSITIVE = "field-sensitive"


class DependencyTable:
    """Table 3: ordered verb pair -> parallelizability class."""

    def __init__(self, overrides: Optional[Dict[Tuple[Verb, Verb], Parallelism]] = None):
        self._cells: Dict[Tuple[Verb, Verb], object] = {
            # NF1 = READ
            (Verb.READ, Verb.READ): _NC,
            (Verb.READ, Verb.WRITE): _FIELD_SENSITIVE,
            (Verb.READ, Verb.ADD): _C,
            (Verb.READ, Verb.REMOVE): _C,
            (Verb.READ, Verb.DROP): _NC,
            # NF1 = WRITE
            (Verb.WRITE, Verb.READ): _NP,
            (Verb.WRITE, Verb.WRITE): _FIELD_SENSITIVE,
            (Verb.WRITE, Verb.ADD): _C,
            (Verb.WRITE, Verb.REMOVE): _C,
            (Verb.WRITE, Verb.DROP): _NC,
            # NF1 = ADD
            (Verb.ADD, Verb.READ): _NP,
            (Verb.ADD, Verb.WRITE): _NP,
            (Verb.ADD, Verb.ADD): _NP,
            (Verb.ADD, Verb.REMOVE): _NP,
            (Verb.ADD, Verb.DROP): _NP,
            # NF1 = REMOVE
            (Verb.REMOVE, Verb.READ): _NP,
            (Verb.REMOVE, Verb.WRITE): _NP,
            (Verb.REMOVE, Verb.ADD): _NP,
            (Verb.REMOVE, Verb.REMOVE): _NP,
            (Verb.REMOVE, Verb.DROP): _NP,
            # NF1 = DROP
            (Verb.DROP, Verb.READ): _NC,
            (Verb.DROP, Verb.WRITE): _NP,
            (Verb.DROP, Verb.ADD): _NP,
            (Verb.DROP, Verb.REMOVE): _NP,
            (Verb.DROP, Verb.DROP): _NC,
        }
        if overrides:
            for pair, value in overrides.items():
                if pair not in self._cells:
                    raise KeyError(f"unknown DT cell: {pair}")
                self._cells[pair] = value

    def fetch(self, a1: Action, a2: Action) -> Parallelism:
        """Algorithm 1's ``fetchParallelism(DT, (a1, a2))``.

        Must not be called on the field-sensitive cells -- the algorithm
        resolves those inline (lines 6-9 of the pseudocode).
        """
        cell = self._cells[(a1.verb, a2.verb)]
        if cell is _FIELD_SENSITIVE:
            raise ValueError(
                f"cell ({a1.verb}, {a2.verb}) is field-sensitive; "
                "Algorithm 1 must resolve it inline"
            )
        return cell  # type: ignore[return-value]

    def is_field_sensitive(self, a1: Action, a2: Action) -> bool:
        return self._cells[(a1.verb, a2.verb)] is _FIELD_SENSITIVE


#: The default Table 3 used throughout the orchestrator.
DEFAULT_DEPENDENCY_TABLE = DependencyTable()


class ParallelismResult:
    """Output of Algorithm 1.

    Attributes
    ----------
    parallelizable:
        The ``p`` flag: can the two NFs run in parallel at all?
    conflicting_actions:
        The ``ca`` list: action pairs that force NF2 onto its own packet
        copy.  Non-empty iff a copy is needed.
    """

    __slots__ = ("parallelizable", "conflicting_actions")

    def __init__(
        self,
        parallelizable: bool,
        conflicting_actions: Optional[List[Tuple[Action, Action]]] = None,
    ):
        self.parallelizable = parallelizable
        self.conflicting_actions = list(conflicting_actions or [])

    @property
    def classification(self) -> Parallelism:
        if not self.parallelizable:
            return Parallelism.NOT_PARALLELIZABLE
        return Parallelism.WITH_COPY if self.conflicting_actions else Parallelism.NO_COPY

    def __repr__(self) -> str:
        return (
            f"ParallelismResult({self.classification.value}, "
            f"conflicts={self.conflicting_actions!r})"
        )


def identify_parallelism(
    nf1: ActionProfile,
    nf2: ActionProfile,
    table: DependencyTable = DEFAULT_DEPENDENCY_TABLE,
) -> ParallelismResult:
    """Algorithm 1: NF Parallelism Identification.

    Input is the ordered pair from ``Order(NF1, before, NF2)`` (or the
    two NFs of a ``Priority`` rule, §4.3); output is whether they are
    parallelizable and which actions conflict (requiring packet copying).
    """
    conflicting: List[Tuple[Action, Action]] = []
    for a1, a2 in nf1.action_pairs(nf2):
        # Encapsulation guard: adding/removing an outer stack (VXLAN)
        # re-homes every field accessor, so no copy/merge discipline can
        # reconcile it with *any* concurrent action -- not even the
        # (Read, Add)-with-copy cell that works for offset-transparent
        # units like AH or a VLAN tag.
        if _encapsulation_conflict(a1, a2):
            return ParallelismResult(False)
        # Lines 6-9: read-write / write-write are decided by field overlap
        # (OP#1, Dirty Memory Reusing).  A table override of these cells
        # disables the optimisation (used by the ablation benchmarks).
        if table.is_field_sensitive(a1, a2):
            if a1.conflicts_same_field(a2):
                conflicting.append((a1, a2))
            continue
        outcome = table.fetch(a1, a2)
        if outcome is Parallelism.NOT_PARALLELIZABLE:
            return ParallelismResult(False)
        if outcome is Parallelism.WITH_COPY:
            conflicting.append((a1, a2))
        # NO_COPY: continue.
    return ParallelismResult(True, conflicting)


def _encapsulation_conflict(a1: Action, a2: Action) -> bool:
    return any(
        a.verb.is_structural and a.field is not None and a.field.is_encapsulating
        for a in (a1, a2)
    )


def can_share_buffer(
    nf_a: ActionProfile,
    nf_b: ActionProfile,
    table: DependencyTable = DEFAULT_DEPENDENCY_TABLE,
) -> bool:
    """Whether two *parallel* NFs may operate on the same packet copy.

    Parallel NFs on one buffer race in both directions, so sharing is
    safe only when Algorithm 1 reports "parallelizable without copy" for
    both orderings (this is the buffer-assignment side of OP#1).
    """
    forward = identify_parallelism(nf_a, nf_b, table)
    backward = identify_parallelism(nf_b, nf_a, table)
    return (
        forward.parallelizable
        and backward.parallelizable
        and not forward.conflicting_actions
        and not backward.conflicting_actions
    )
