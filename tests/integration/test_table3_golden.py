"""Golden: what Table 3 and Algorithm 1 decide, pinned end to end.

Two pins, both exact:

* a sha256 over every two-NF policy over the fuzzer's ``NF_POOL`` --
  each ordered kind pair under ``Order(x, before, y)``,
  ``Priority(x > y)`` and ``Priority(y > x)``, 21 x 21 x 3 = 1,323
  compiles -- hashing each graph's structure, copies and merge
  operations, the compiler's warnings and its sorted Algorithm 1
  decisions with their conflicting actions;
* all 121 cells of the §4.3 matrix that ``repro pairs`` prints, and its
  four shares.

A change to how Table 3 is stored must leave both byte-identical.  CI
also runs this module under a random ``PYTHONHASHSEED``: the compiler
iterates sets of name pairs, and their order must not reach its output.
"""

import hashlib
import itertools

from repro.check.generator import NF_POOL
from repro.core import NFSpec, Orchestrator, Parallelism, Policy
from repro.eval import compute_pair_statistics

#: sha256 of the 1,323 pair compiles, rendered by ``_render``.
PAIR_POLICY_DIGEST = (
    "c6176f5e56ce8942c667bd2c4123f85acd076866390dee5206c5757a13a6f5a9"
)

#: ``repro pairs``: row runs before column; . no copy, c with copy,
#: X not parallelizable.  Rows and columns in sorted name order.
MATRIX = """\
caching      . c . . c . c . c . c
compression  X X X X X X X X X . X
firewall     . X . . X . X . X . X
gateway      . . . . c . c . c . c
loadbalancer X X X X X X X X X . X
monitor      . . . . c . c . c . c
nat          X X X X X X X X X . X
nids         . c . . c . c . c . c
proxy        X X X X X X X X X . X
shaper       . . . . . . . . . . .
vpn          X X X X X X X X X . X
"""

_SYMBOL = {
    Parallelism.NO_COPY: ".",
    Parallelism.WITH_COPY: "c",
    Parallelism.NOT_PARALLELIZABLE: "X",
}


def _pair_policies():
    for a, b in itertools.product(NF_POOL, repeat=2):
        first, second = f"{a}-0", f"{b}-1"
        for rule in ("order", "high", "low"):
            policy = Policy(name=f"{first}.{rule}.{second}")
            policy.declare(NFSpec(first, a)).declare(NFSpec(second, b))
            if rule == "order":
                policy.order(first, second)
            elif rule == "high":
                policy.priority(first, second)
            else:
                policy.priority(second, first)
            yield policy


def _render(policy, result) -> str:
    graph = result.graph
    lines = [
        policy.name,
        graph.describe(),
        "copies " + " ".join(repr(c) for c in graph.copies),
        "merge " + " ".join(repr(op) for op in graph.merge_ops),
    ]
    lines += [f"warn {w}" for w in result.warnings]
    for (a, b), verdict in sorted(result.decisions.items()):
        lines.append(f"{a} {b} {verdict.classification.value} "
                     f"{verdict.conflicting_actions!r}")
    return "\n".join(lines) + "\n"


def pair_policy_digest() -> str:
    orchestrator = Orchestrator()
    digest = hashlib.sha256()
    count = 0
    for policy in _pair_policies():
        digest.update(_render(policy, orchestrator.compile(policy)).encode())
        count += 1
    assert count == len(NF_POOL) ** 2 * 3 == 1323
    return digest.hexdigest()


def test_every_pair_policy_compiles_as_pinned():
    assert pair_policy_digest() == PAIR_POLICY_DIGEST


def test_every_cell_of_the_pair_matrix_is_pinned():
    stats = compute_pair_statistics()
    names = sorted({a for a, _ in stats.per_pair})
    rows = [
        f"{first:<12s} " + " ".join(
            _SYMBOL[stats.per_pair[(first, second)]] for second in names)
        for first in names
    ]
    assert "\n".join(rows) + "\n" == MATRIX
    assert [round(share * 100, 2) for share in (
        stats.parallelizable, stats.no_copy, stats.with_copy,
        stats.not_parallelizable)] == [54.55, 39.67, 14.88, 45.45]
