#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation.

Prints each DES experiment of §6/§7 -- Fig. 7-13, Table 4, the overhead,
merger and ablation results -- from the ``repro.bench`` registry, at the
packet budget and seed ``benchmarks/results/baseline.json`` pins, and
runs the exact experiments (§4.3's pair statistics, the §6.4
correctness replay, Fig. 15's cost model) directly.  Takes about half a
minute.

Run:  python examples/reproduce_paper.py
"""

from repro.bench import PAPER_SPECS, run_spec
from repro.eval import compute_pair_statistics, render_table, replay_chain
from repro.eval.experiments import NORTH_SOUTH_CHAIN, WEST_EAST_CHAIN
from repro.modular import fig15


def main() -> None:
    print("== §4.3: NF pair parallelizability (Table 2 x Algorithm 1) ==")
    stats = compute_pair_statistics()
    print(render_table(["outcome", "measured %", "paper %"], stats.as_rows()))
    print()

    for spec in PAPER_SPECS:
        print(run_spec(spec).experiment_table().render())
        print(f"({spec.description})")
        print()

    print("== §6.4: correctness replay ==")
    for chain in (NORTH_SOUTH_CHAIN, WEST_EAST_CHAIN):
        print(" ", replay_chain(chain))
    print()

    print("== §7 / Fig. 15: OpenBox + NFP block-level parallelism ==")
    print(fig15())


if __name__ == "__main__":
    main()
