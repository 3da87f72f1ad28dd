"""Table 3 from the result-correctness principle: a small executable semantics.

The paper prints Table 3 only as coloured blocks.  This module decides
each of its verdicts by running the principle -- parallel execution must
give the same packet *and* the same NF state as sequential execution --
on a model small enough to enumerate:

* a packet is two header units, each absent or present with a value,
  plus a drop flag.  The units are ``AH`` and the VLAN tag, which the
  field accessors parse through, so neither moves the other;
* an NF is one action on one unit, and its state is whether it saw the
  packet and the values it read.  *Read* logs the unit's value (``None``
  when absent); *Write* sets it when present; *Add* makes it present
  with the NF's value; *Remove* deletes it; *Drop* sets the flag.

Each verb pair, on the same unit and on different units (a Drop pair
has no field, so it has one case), runs three ways over every input
packet: sequentially (NF2 never sees a packet NF1 dropped); in parallel
on one buffer, in both interleavings; and in parallel with NF2 on a copy
that the merge folds back with the operations the compiler derives from
NF2's action (modify a written unit, add an added one, remove a removed
one, drop on either drop).  The derived verdict (:func:`derive`) is
the cheapest plan whose output and NF states match the sequential run:
no copy, then with copy, else not parallelizable.

Of the 41 verdicts, 18 are *derived*: Algorithm 1 on the one-action
profiles returns them.  The other 23 are the paper's own choices and
are listed in :data:`INTENT`, each with a one-line reason and its cost:
§4.3's four pair shares if that verdict took its derived value.  The
model has no byte offsets, so a verdict that protects offsets (a unit
moving under a concurrent reader or writer) shows up as intent.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core.action_table import default_action_table
from repro.core.actions import Action, ActionProfile, Verb
from repro.core.dependency import Parallelism, encapsulates, identify_parallelism
from repro.eval.pair_stats import TABLE2_NF_SET
from repro.net.fields import Field

__all__ = [
    "INTENT", "Intent", "KEYS", "algorithm1", "derive", "expand", "key_of",
    "one_action_pair", "pair_shares", "shares_without_op1", "split_errors",
]

NC = Parallelism.NO_COPY
C = Parallelism.WITH_COPY
NP = Parallelism.NOT_PARALLELIZABLE

#: The two units: "same field" puts both actions on ``A``, "different"
#: puts NF2's on ``B``.
A, B = Field.AH_HEADER, Field.VLAN_HEADER

#: (NF1's verb, NF2's verb, "same" | "different" | None for a Drop pair).
Key = Tuple[Verb, Verb, Optional[str]]

KEYS: List[Key] = [
    (v1, v2, relation)
    for v1, v2 in itertools.product(Verb, repeat=2)
    for relation in ((None,) if Verb.DROP in (v1, v2) else ("same", "different"))
]

#: Shares are (parallelizable, no copy, with copy, not parallelizable),
#: in percent of §4.3's 121 ordered Table 2 pairs.
Shares = Tuple[float, float, float, float]


def one_action_pair(key: Key) -> Tuple[Action, Action]:
    """The two actions a key denotes."""
    v1, v2, relation = key
    first = Action(v1, None if v1 is Verb.DROP else A)
    second = Action(v2, None if v2 is Verb.DROP else (A if relation == "same" else B))
    return first, second


def key_of(a1: Action, a2: Action) -> Key:
    """The key of an action pair of two real profiles."""
    if Verb.DROP in (a1.verb, a2.verb):
        return a1.verb, a2.verb, None
    return a1.verb, a2.verb, "same" if a1.conflicts_same_field(a2) else "different"


# ------------------------------------------------------------ the semantics
class _Packet:
    __slots__ = ("units", "dropped")

    def __init__(self, units: Dict[Field, object], dropped: bool = False):
        self.units = dict(units)
        self.dropped = dropped

    def copy(self) -> "_Packet":
        return _Packet(self.units, self.dropped)

    def output(self):
        return "dropped" if self.dropped else sorted(
            (unit.value, value) for unit, value in self.units.items())


#: Every input: each unit absent or present with value 0.
_INPUTS = [
    {unit: 0 for unit, present in zip((A, B), mask) if present}
    for mask in itertools.product((False, True), repeat=2)
]


def _run(action: Action, tag: str, pkt: _Packet, state: list) -> None:
    """One NF processes ``pkt`` in place, logging into its ``state``."""
    state.append("saw")
    verb, unit = action.verb, action.field
    if verb is Verb.READ:
        state.append(pkt.units.get(unit))
    elif verb is Verb.WRITE:
        if unit in pkt.units:
            pkt.units[unit] = tag
    elif verb is Verb.ADD:
        pkt.units[unit] = tag
    elif verb is Verb.REMOVE:
        pkt.units.pop(unit, None)
    else:
        pkt.dropped = True


def _sequential(a1, a2, units):
    pkt, s1, s2 = _Packet(units), [], []
    _run(a1, "nf1", pkt, s1)
    if not pkt.dropped:
        _run(a2, "nf2", pkt, s2)
    return pkt.output(), s1, s2


def _shared(a1, a2, units, nf2_first: bool):
    pkt, s1, s2 = _Packet(units), [], []
    steps = [(a1, "nf1", s1), (a2, "nf2", s2)]
    for action, tag, state in reversed(steps) if nf2_first else steps:
        _run(action, tag, pkt, state)
    return pkt.output(), s1, s2


def _copied(a1, a2, units):
    v1, s1, s2 = _Packet(units), [], []
    v2 = v1.copy()
    _run(a1, "nf1", v1, s1)
    _run(a2, "nf2", v2, s2)
    unit = a2.field
    v1.dropped = v1.dropped or v2.dropped
    if a2.verb is Verb.WRITE:
        if unit in v1.units and unit in v2.units:
            v1.units[unit] = v2.units[unit]
    elif a2.verb is Verb.ADD:
        v1.units[unit] = v2.units[unit]
    elif a2.verb is Verb.REMOVE:
        v1.units.pop(unit, None)
    return v1.output(), s1, s2


def derive(key: Key) -> Parallelism:
    """The cheapest plan that matches the sequential run on every input."""
    a1, a2 = one_action_pair(key)
    plans = [
        (NC, [lambda u: _shared(a1, a2, u, False),
              lambda u: _shared(a1, a2, u, True)]),
        (C, [lambda u: _copied(a1, a2, u)]),
    ]
    for verdict, runs in plans:
        if all(run(units) == _sequential(a1, a2, units)
               for run in runs for units in _INPUTS):
            return verdict
    return NP


# -------------------------------------------------- Algorithm 1 on a table
#: The cells Algorithm 1 decides by field overlap (its lines 6-9).
_FIELD_SENSITIVE = ((Verb.READ, Verb.WRITE), (Verb.WRITE, Verb.WRITE))


def expand(table) -> Dict[Key, Parallelism]:
    """Algorithm 1's verdict on each key under a Table 3 ``table``: the
    field-sensitive cells share one buffer on different fields (OP#1)."""
    verdicts = {}
    for key in KEYS:
        v1, v2, relation = key
        by_field = (v1, v2) in _FIELD_SENSITIVE and relation == "different"
        verdicts[key] = NC if by_field else table[(v1, v2)]
    return verdicts


def algorithm1(nf1: ActionProfile, nf2: ActionProfile,
               verdicts: Dict[Key, Parallelism]) -> Parallelism:
    """Algorithm 1 with each action pair's verdict read from ``verdicts``."""
    if nf1.actions and nf2.actions and (encapsulates(nf1) or encapsulates(nf2)):
        return NP
    outcome = NC
    for a1, a2 in nf1.action_pairs(nf2):
        verdict = verdicts[key_of(a1, a2)]
        if verdict is NP:
            return NP
        if verdict is C:
            outcome = C
    return outcome


def _shares(classify: Callable[[ActionProfile, ActionProfile], Parallelism]) -> Shares:
    table = default_action_table()
    counts = {verdict: 0 for verdict in Parallelism}
    for first, second in itertools.product(TABLE2_NF_SET, repeat=2):
        counts[classify(table.fetch(first), table.fetch(second))] += 1
    total = len(TABLE2_NF_SET) ** 2
    return tuple(round(100 * n / total, 2) for n in (
        counts[NC] + counts[C], counts[NC], counts[C], counts[NP]))


def pair_shares(verdicts: Dict[Key, Parallelism]) -> Shares:
    """§4.3's uniform shares when Algorithm 1 reads ``verdicts``."""
    return _shares(lambda nf1, nf2: algorithm1(nf1, nf2, verdicts))


def shares_without_op1() -> Shares:
    """§4.3's shares with OP#1 off: a pair Algorithm 1 passes with no
    copy but that holds a (Read, Write) or (Write, Write) action pair
    -- necessarily on different fields -- copies instead."""
    def classify(nf1, nf2):
        verdict = identify_parallelism(nf1, nf2).classification
        if verdict is NC and any((a1.verb, a2.verb) in _FIELD_SENSITIVE
                                 for a1, a2 in nf1.action_pairs(nf2)):
            return C
        return verdict
    return _shares(classify)


# ------------------------------------------------------------ the labels
class Intent(NamedTuple):
    """A verdict Table 3 chooses over the derived one."""

    verdict: Parallelism
    reason: str
    #: §4.3's shares if this verdict took its derived value.
    cost: Shares


_R, _W, _ADD, _RM, _DROP = Verb.READ, Verb.WRITE, Verb.ADD, Verb.REMOVE, Verb.DROP

#: §4.3's shares under Table 3 as it is: the verdict reaches no Table 2
#: pair, so it costs nothing there.
_FREE: Shares = (54.55, 39.67, 14.88, 45.45)

_INSERT = "on one buffer NF2's insert shifts the bytes NF1 is parsing; a copy does not"
_STRIP = "on one buffer NF2's strip shifts the bytes NF1 is parsing; a copy does not"
_STRUCTURAL = ("NF1's structural change is meant to reach every later NF "
               "(a VPN's AH is there when they run)")

INTENT: Dict[Key, Intent] = {
    (_R, _ADD, "different"): Intent(C, _INSERT, (54.55, 41.32, 13.22, 45.45)),
    (_R, _RM, "different"): Intent(C, _STRIP, _FREE),
    (_W, _R, "different"): Intent(
        NP, "the operator means NF1's change to reach NF2 whatever it reads",
        (60.33, 45.45, 14.88, 39.67)),
    (_W, _ADD, "different"): Intent(C, _INSERT, _FREE),
    (_W, _RM, "same"): Intent(
        C, "on bytes, NF1's store into a unit being stripped lands in what "
           "slides into its place", _FREE),
    (_W, _RM, "different"): Intent(C, _STRIP, _FREE),
    (_ADD, _R, "different"): Intent(NP, _STRUCTURAL, _FREE),
    (_ADD, _W, "different"): Intent(NP, _STRUCTURAL, _FREE),
    (_ADD, _ADD, "same"): Intent(NP, _STRUCTURAL, _FREE),
    (_ADD, _ADD, "different"): Intent(NP, _STRUCTURAL, _FREE),
    (_ADD, _RM, "same"): Intent(NP, _STRUCTURAL, _FREE),
    (_ADD, _RM, "different"): Intent(NP, _STRUCTURAL, _FREE),
    (_ADD, _DROP, None): Intent(NP, _STRUCTURAL, _FREE),
    (_RM, _R, "different"): Intent(NP, _STRUCTURAL, _FREE),
    (_RM, _W, "same"): Intent(NP, _STRUCTURAL, _FREE),
    (_RM, _W, "different"): Intent(NP, _STRUCTURAL, _FREE),
    (_RM, _ADD, "same"): Intent(NP, _STRUCTURAL, _FREE),
    (_RM, _ADD, "different"): Intent(NP, _STRUCTURAL, _FREE),
    (_RM, _RM, "same"): Intent(NP, _STRUCTURAL, _FREE),
    (_RM, _RM, "different"): Intent(NP, _STRUCTURAL, _FREE),
    (_RM, _DROP, None): Intent(NP, _STRUCTURAL, _FREE),
    (_DROP, _R, None): Intent(
        NC, "Fig. 1's firewall || monitor: the reader sees packets the "
            "dropper discards, and the merger's nil drops them",
        (50.41, 35.54, 14.88, 49.59)),
    (_DROP, _DROP, None): Intent(
        NC, "as (Drop, Read): the merger drops a packet either NF drops, "
            "and one dropper seeing the other's drops is not kept state",
        (53.72, 38.84, 14.88, 46.28)),
}


def split_errors(verdicts: Dict[Key, Parallelism]) -> List[str]:
    """Keys whose verdict is neither derived nor the listed intent."""
    errors = []
    for key in KEYS:
        derived = derive(key)
        intent = INTENT.get(key)
        if intent is None and verdicts[key] is not derived:
            errors.append(f"{key}: {verdicts[key].value}, derived {derived.value}")
        elif intent is not None and (verdicts[key] is not intent.verdict
                                     or intent.verdict is derived):
            errors.append(f"{key}: {verdicts[key].value}, intent "
                          f"{intent.verdict.value}, derived {derived.value}")
    return errors

