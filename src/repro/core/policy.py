"""NFP policy specification scheme (§3).

Three rule types express chaining intents:

* ``Order(NF1, before, NF2)`` -- sequential intent; the orchestrator
  still probes the pair for parallelism and upgrades it when safe.
* ``Priority(NF1 > NF2)`` -- parallel intent with NF1's result winning
  on conflicting actions.
* ``Position(NF, first/last)`` -- pin an NF to the head/tail of the
  graph.

A :class:`Policy` is an ordered collection of rules over NF *instances*.
``Policy.from_chain`` converts a traditional sequential chain description
into Order rules, which is how NFP stays backward compatible ("we are
able to automatically transfer it to NFP policies", §3).
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Sequence, Set, Union

__all__ = [
    "Position",
    "OrderRule",
    "PriorityRule",
    "PositionRule",
    "Rule",
    "Policy",
    "NFSpec",
]


class Position(enum.Enum):
    FIRST = "first"
    LAST = "last"

    @classmethod
    def parse(cls, token: str) -> "Position":
        token = token.strip().lower()
        for member in cls:
            if member.value == token:
                return member
        raise ValueError(f"position must be 'first' or 'last', got {token!r}")


class NFSpec:
    """Declares an NF instance: a unique name bound to an NF type.

    ``name`` identifies the instance inside the policy (e.g. ``"fw1"``);
    ``kind`` selects the action profile / implementation (``"firewall"``).
    A bare kind used as a name is the common single-instance case.
    """

    __slots__ = ("name", "kind")

    def __init__(self, name: str, kind: Optional[str] = None):
        if not name:
            raise ValueError("NF instance needs a name")
        self.name = name
        self.kind = (kind or name).lower()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NFSpec)
            and self.name == other.name
            and self.kind == other.kind
        )

    def __hash__(self) -> int:
        return hash((self.name, self.kind))

    def __repr__(self) -> str:
        if self.name == self.kind:
            return f"NFSpec({self.name})"
        return f"NFSpec({self.name}:{self.kind})"


class OrderRule:
    """``Order(before, before_keyword, after)``: execute ``before`` first."""

    __slots__ = ("before", "after")

    def __init__(self, before: str, after: str):
        if before == after:
            raise ValueError(f"Order rule cannot relate {before!r} to itself")
        self.before = before
        self.after = after

    def __repr__(self) -> str:
        return f"Order({self.before}, before, {self.after})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, OrderRule)
            and (self.before, self.after) == (other.before, other.after)
        )

    def __hash__(self) -> int:
        return hash(("order", self.before, self.after))


class PriorityRule:
    """``Priority(high > low)``: run in parallel, ``high`` wins conflicts."""

    __slots__ = ("high", "low")

    def __init__(self, high: str, low: str):
        if high == low:
            raise ValueError(f"Priority rule cannot relate {high!r} to itself")
        self.high = high
        self.low = low

    def __repr__(self) -> str:
        return f"Priority({self.high} > {self.low})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PriorityRule)
            and (self.high, self.low) == (other.high, other.low)
        )

    def __hash__(self) -> int:
        return hash(("priority", self.high, self.low))


class PositionRule:
    """``Position(nf, first/last)``: pin an NF to an end of the graph."""

    __slots__ = ("nf", "position")

    def __init__(self, nf: str, position: Union[Position, str]):
        self.nf = nf
        self.position = (
            position if isinstance(position, Position) else Position.parse(position)
        )

    def __repr__(self) -> str:
        return f"Position({self.nf}, {self.position.value})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PositionRule)
            and (self.nf, self.position) == (other.nf, other.position)
        )

    def __hash__(self) -> int:
        return hash(("position", self.nf, self.position))


Rule = Union[OrderRule, PriorityRule, PositionRule]


class Policy:
    """An ordered set of NFP rules plus the NF instances they mention.

    Instances can be declared explicitly (giving a name *and* type) or
    implicitly by mentioning a type name in a rule.
    """

    def __init__(self, name: str = "policy"):
        self.name = name
        self.rules: List[Rule] = []
        self._instances: Dict[str, NFSpec] = {}

    # ------------------------------------------------------------ building
    def declare(self, spec: NFSpec) -> "Policy":
        existing = self._instances.get(spec.name)
        if existing is not None and existing.kind != spec.kind:
            raise ValueError(
                f"instance {spec.name!r} redeclared with kind {spec.kind!r} "
                f"(was {existing.kind!r})"
            )
        self._instances[spec.name] = spec
        return self

    def _touch(self, name: str) -> None:
        if name not in self._instances:
            self._instances[name] = NFSpec(name)

    def add(self, rule: Rule) -> "Policy":
        """Append a rule, implicitly declaring any new NF names."""
        if isinstance(rule, OrderRule):
            self._touch(rule.before)
            self._touch(rule.after)
        elif isinstance(rule, PriorityRule):
            self._touch(rule.high)
            self._touch(rule.low)
        elif isinstance(rule, PositionRule):
            self._touch(rule.nf)
        else:
            raise TypeError(f"not an NFP rule: {rule!r}")
        self.rules.append(rule)
        return self

    def order(self, before: str, after: str) -> "Policy":
        return self.add(OrderRule(before, after))

    def priority(self, high: str, low: str) -> "Policy":
        return self.add(PriorityRule(high, low))

    def position(self, nf: str, where: Union[Position, str]) -> "Policy":
        return self.add(PositionRule(nf, where))

    @classmethod
    def from_chain(
        cls, chain: Sequence[Union[str, NFSpec]], name: str = "chain"
    ) -> "Policy":
        """Convert a traditional sequential chain into Order rules.

        ``Assign(NF, i)`` positions become ``Order`` rules for adjacent
        NFs (Table 1, rows 1-2), letting the orchestrator hunt for
        parallelism within the chain.
        """
        specs = [nf if isinstance(nf, NFSpec) else NFSpec(nf) for nf in chain]
        if len({s.name for s in specs}) != len(specs):
            raise ValueError("chain contains duplicate instance names")
        policy = cls(name=name)
        for spec in specs:
            policy.declare(spec)
        for left, right in zip(specs, specs[1:]):
            policy.order(left.name, right.name)
        return policy

    # ------------------------------------------------------------- queries
    @property
    def instances(self) -> Dict[str, NFSpec]:
        return dict(self._instances)

    def nf_names(self) -> Set[str]:
        return set(self._instances)

    def kind_of(self, name: str) -> str:
        return self._instances[name].kind

    def order_rules(self) -> Iterator[OrderRule]:
        return (r for r in self.rules if isinstance(r, OrderRule))

    def priority_rules(self) -> Iterator[PriorityRule]:
        return (r for r in self.rules if isinstance(r, PriorityRule))

    def position_rules(self) -> Iterator[PositionRule]:
        return (r for r in self.rules if isinstance(r, PositionRule))

    def __len__(self) -> int:
        return len(self.rules)

    def __repr__(self) -> str:
        return f"Policy({self.name!r}, {len(self.rules)} rules, {len(self._instances)} NFs)"
