"""§4.3's headline statistics: how many NF pairs can run in parallel?

"We input all possible NF pairs from Table 2 into the algorithm.
According to the algorithm output and the appearance probabilities of
the NF pairs, we find that 53.8% NF pairs can work in parallel.  In
particular, 41.5% pairs can be parallelized without causing extra
resource overhead."  (So 12.3% parallelize with copying, §6.3.)

We rerun Algorithm 1 over every *ordered* pair of Table 2 profiles
(including same-type pairs).  With uniform pair weighting this
reproduction lands within ~2 points of every paper number (54.5 / 39.7
/ 14.9 / 45.5); this is the only published check of Table 3's cells,
which the paper prints as coloured blocks (which of them the
correctness principle forces is labelled in
``tests/support/table3_semantics.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.action_table import default_action_table
from ..core.dependency import Parallelism, identify_parallelism

__all__ = ["PairStatistics", "compute_pair_statistics", "TABLE2_NF_SET"]

#: The eleven NFs that appear in Table 2 (prototype-only kinds such as
#: "forwarder" are excluded from the statistic, as in the paper).
TABLE2_NF_SET = (
    "firewall",
    "nids",
    "gateway",
    "loadbalancer",
    "caching",
    "vpn",
    "nat",
    "proxy",
    "compression",
    "shaper",
    "monitor",
)

#: The paper's reported shares, for side-by-side reporting.
PAPER_SHARES = {
    "parallelizable": 53.8,
    "no_copy": 41.5,
    "with_copy": 12.3,
    "not_parallelizable": 46.2,
}


@dataclass
class PairStatistics:
    """Weighted shares of each Algorithm 1 outcome over NF pairs."""

    parallelizable: float  # no-copy + with-copy
    no_copy: float
    with_copy: float
    not_parallelizable: float
    per_pair: Dict[Tuple[str, str], Parallelism]

    def as_rows(self) -> List[Tuple[str, float, float]]:
        """(outcome, measured %, paper %) rows for the report table."""
        return [
            ("parallelizable (total)", self.parallelizable * 100,
             PAPER_SHARES["parallelizable"]),
            ("parallelizable, no copy", self.no_copy * 100,
             PAPER_SHARES["no_copy"]),
            ("parallelizable, with copy", self.with_copy * 100,
             PAPER_SHARES["with_copy"]),
            ("not parallelizable", self.not_parallelizable * 100,
             PAPER_SHARES["not_parallelizable"]),
        ]


def compute_pair_statistics() -> PairStatistics:
    """Run Algorithm 1 over all ordered pairs of :data:`TABLE2_NF_SET`,
    every ordered pair weighing the same."""
    table = default_action_table()
    weight = 1.0 / len(TABLE2_NF_SET) ** 2
    shares = {outcome: 0.0 for outcome in Parallelism}
    per_pair: Dict[Tuple[str, str], Parallelism] = {}
    for first in TABLE2_NF_SET:
        for second in TABLE2_NF_SET:
            verdict = identify_parallelism(table.fetch(first), table.fetch(second))
            outcome = verdict.classification
            per_pair[(first, second)] = outcome
            shares[outcome] += weight

    return PairStatistics(
        parallelizable=shares[Parallelism.NO_COPY] + shares[Parallelism.WITH_COPY],
        no_copy=shares[Parallelism.NO_COPY],
        with_copy=shares[Parallelism.WITH_COPY],
        not_parallelizable=shares[Parallelism.NOT_PARALLELIZABLE],
        per_pair=per_pair,
    )
