"""Action dependency analysis: Table 3 and Algorithm 1 (§4.1-§4.3).

Given ``Order(NF1, before, NF2)``, the orchestrator decides whether the
two NFs can run in parallel and whether doing so requires a packet copy,
using the *result correctness principle*: parallel execution must yield
the same processed packet and NF internal state as sequential execution.

Table 3 is :data:`TABLE3`, one verdict per ordered verb pair.  Two
cells -- (Read, Write) and (Write, Write) -- are field-sensitive: they
need a copy only when both actions touch the same field (OP#1 *Dirty
Memory Reusing*), so they hold their same-field verdict and Algorithm 1
checks field overlap before reading them, as lines 6-9 of the paper's
pseudocode do.

The paper prints Table 3 only as coloured blocks.  Which cells the
correctness principle forces and which are the paper's own choices
(e.g. ``(Write, Read)`` is never parallelizable, even on different
fields, because the operator means NF1's change to reach NF2) is worked
out by the executable semantics in ``tests/support/table3_semantics.py``:
each cell is labelled *derived* or *intent*, and an intent label gives
its reason and its cost in §4.3's pair shares.

One guard precedes the table: adding or removing an encapsulating outer
stack (VXLAN) re-homes every field referent, so an NF that does it never
runs in parallel (see :func:`encapsulates` and
:attr:`repro.net.fields.Field.is_encapsulating`).  AH and the VLAN tag,
which the field accessors parse through, follow the table.
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import List, Mapping, Optional, Tuple

from .actions import Action, ActionProfile, Verb

__all__ = [
    "Parallelism",
    "ParallelismResult",
    "TABLE3",
    "encapsulates",
    "identify_parallelism",
    "can_share_buffer",
]


class Parallelism(enum.Enum):
    """Outcome classes of Table 3."""

    NOT_PARALLELIZABLE = "not_parallelizable"
    NO_COPY = "parallelizable_no_copy"
    WITH_COPY = "parallelizable_with_copy"


_NC = Parallelism.NO_COPY
_C = Parallelism.WITH_COPY
_NP = Parallelism.NOT_PARALLELIZABLE

#: Table 3: (NF1's verb, NF2's verb) -> verdict.  The field-sensitive
#: cells hold their same-field verdict.
TABLE3: Mapping[Tuple[Verb, Verb], Parallelism] = MappingProxyType({
    # NF1 = READ
    (Verb.READ, Verb.READ): _NC,
    (Verb.READ, Verb.WRITE): _C,
    (Verb.READ, Verb.ADD): _C,
    (Verb.READ, Verb.REMOVE): _C,
    (Verb.READ, Verb.DROP): _NC,
    # NF1 = WRITE
    (Verb.WRITE, Verb.READ): _NP,
    (Verb.WRITE, Verb.WRITE): _C,
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
})

#: The cells Algorithm 1 decides by field overlap (lines 6-9).
_FIELD_SENSITIVE = frozenset({(Verb.READ, Verb.WRITE), (Verb.WRITE, Verb.WRITE)})


def encapsulates(profile: ActionProfile) -> bool:
    """Whether the NF adds or removes an encapsulating unit (VXLAN)."""
    return any(a.verb.is_structural and a.field.is_encapsulating for a in profile.actions)


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


def identify_parallelism(nf1: ActionProfile, nf2: ActionProfile) -> ParallelismResult:
    """Algorithm 1: NF Parallelism Identification.

    Input is the ordered pair from ``Order(NF1, before, NF2)`` (or the
    two NFs of a ``Priority`` rule, §4.3); output is whether they are
    parallelizable and which actions conflict (requiring packet copying).
    """
    # Encapsulation guard: an outer stack re-homes every field accessor,
    # so no copy/merge discipline reconciles it with any action of the
    # other NF -- not even the (Read, Add)-with-copy cell that works for
    # the parse-through units.  An NF with no actions has none to race.
    if nf1.actions and nf2.actions and (encapsulates(nf1) or encapsulates(nf2)):
        return ParallelismResult(False)
    conflicting: List[Tuple[Action, Action]] = []
    for a1, a2 in nf1.action_pairs(nf2):
        cell = (a1.verb, a2.verb)
        # Lines 6-9: on different fields, read-write and write-write
        # share one buffer (OP#1, Dirty Memory Reusing).
        if cell in _FIELD_SENSITIVE and not a1.conflicts_same_field(a2):
            continue
        outcome = TABLE3[cell]
        if outcome is Parallelism.NOT_PARALLELIZABLE:
            return ParallelismResult(False)
        if outcome is Parallelism.WITH_COPY:
            conflicting.append((a1, a2))
    return ParallelismResult(True, conflicting)


def can_share_buffer(nf_a: ActionProfile, nf_b: ActionProfile) -> bool:
    """Whether two *parallel* NFs may operate on the same packet copy.

    Parallel NFs on one buffer race in both directions, so sharing is
    safe only when Algorithm 1 reports "parallelizable without copy" for
    both orderings (this is the buffer-assignment side of OP#1).
    """
    forward = identify_parallelism(nf_a, nf_b)
    backward = identify_parallelism(nf_b, nf_a)
    return (
        forward.parallelizable
        and backward.parallelizable
        and not forward.conflicting_actions
        and not backward.conflicting_actions
    )
