"""Policy conflict detection (§3's future work, implemented here).

The paper notes operators "could write two rules with conflicting
orders ... or assign an NF at different positions" and defers detection
to future work, citing header-space analysis and PGA.  We implement the
checks a compiler actually needs before graph construction:

* **Order cycles** -- the Order relation must be a DAG.
* **Position clashes** -- one NF pinned both first and last, or two NFs
  pinned to the same end.
* **Order/Position contradictions** -- e.g. ``Position(X, first)`` while
  some rule orders another NF before X.
* **Priority cycles** -- the Priority relation must be a DAG too;
  ``Priority(A > B)`` with ``Priority(B > A)`` is its shortest cycle.
* **Priority/Order redundancy warnings** -- a pair constrained by both
  rule types (legal, but flagged since the paper treats them as
  different intents).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from .policy import Policy, Position

__all__ = ["PolicyConflictError", "ConflictReport", "check_policy"]


class PolicyConflictError(ValueError):
    """Raised when a policy contains hard conflicts."""

    def __init__(self, conflicts: List[str]):
        super().__init__("; ".join(conflicts))
        self.conflicts = conflicts


class ConflictReport:
    """Outcome of :func:`check_policy`: hard errors and soft warnings."""

    def __init__(self):
        self.errors: List[str] = []
        self.warnings: List[str] = []

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_on_error(self) -> None:
        if self.errors:
            raise PolicyConflictError(self.errors)

    def __repr__(self) -> str:
        return f"ConflictReport(errors={self.errors!r}, warnings={self.warnings!r})"


def _find_cycle(edges: Iterable[Tuple[str, str]]) -> List[str]:
    """Return one cycle through a relation's edges, if any (DFS)."""
    adjacency: Dict[str, List[str]] = {}
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)

    WHITE, GRAY, BLACK = 0, 1, 2
    colour: Dict[str, int] = {}
    stack_path: List[str] = []

    def visit(node: str) -> List[str]:
        colour[node] = GRAY
        stack_path.append(node)
        for nxt in adjacency.get(node, ()):
            state = colour.get(nxt, WHITE)
            if state == GRAY:
                return stack_path[stack_path.index(nxt):] + [nxt]
            if state == WHITE:
                cycle = visit(nxt)
                if cycle:
                    return cycle
        stack_path.pop()
        colour[node] = BLACK
        return []

    for start in list(adjacency):
        if colour.get(start, WHITE) == WHITE:
            cycle = visit(start)
            if cycle:
                return cycle
    return []


def check_policy(policy: Policy) -> ConflictReport:
    """Validate a policy; returns a report of errors and warnings."""
    report = ConflictReport()
    if not policy.nf_names():
        report.errors.append("policy names no NF")

    # 1. Order and Priority cycles.
    relations = (
        ("Order", [(r.before, r.after) for r in policy.order_rules()]),
        ("Priority", [(r.high, r.low) for r in policy.priority_rules()]),
    )
    for relation, edges in relations:
        cycle = _find_cycle(edges)
        if cycle:
            report.errors.append(
                f"{relation} rules form a cycle: {' -> '.join(cycle)}"
            )

    # 2. Position clashes.
    pinned: Dict[str, Set[Position]] = {}
    by_end: Dict[Position, List[str]] = {Position.FIRST: [], Position.LAST: []}
    for rule in policy.position_rules():
        pinned.setdefault(rule.nf, set()).add(rule.position)
        if rule.nf not in by_end[rule.position]:
            by_end[rule.position].append(rule.nf)
    for nf, ends in pinned.items():
        if len(ends) > 1:
            report.errors.append(f"{nf} pinned both first and last")
    for end, nfs in by_end.items():
        if len(nfs) > 1:
            report.errors.append(
                f"multiple NFs pinned {end.value}: {', '.join(sorted(nfs))}"
            )

    # 3. Order vs Position contradictions.
    firsts = {nf for nf, ends in pinned.items() if ends == {Position.FIRST}}
    lasts = {nf for nf, ends in pinned.items() if ends == {Position.LAST}}
    for rule in policy.order_rules():
        if rule.after in firsts:
            report.errors.append(
                f"{rule.after} is pinned first but ordered after {rule.before}"
            )
        if rule.before in lasts:
            report.errors.append(
                f"{rule.before} is pinned last but ordered before {rule.after}"
            )

    # 4. Priority duplicates.
    seen_priorities: Set[Tuple[str, str]] = set()
    for rule in policy.priority_rules():
        if (rule.high, rule.low) in seen_priorities:
            report.warnings.append(
                f"duplicate priority rule {rule.high} > {rule.low}"
            )
        seen_priorities.add((rule.high, rule.low))

    # 5. A pair constrained by both Order and Priority.
    ordered_pairs = {(r.before, r.after) for r in policy.order_rules()}
    for high, low in seen_priorities:
        if (high, low) in ordered_pairs or (low, high) in ordered_pairs:
            report.warnings.append(
                f"pair ({high}, {low}) constrained by both Order and Priority"
            )

    return report
