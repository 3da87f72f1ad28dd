"""Integration smoke: every figure and table has the shape its experiment
function promises.

Each figure/table function runs once, as its ``repro.bench`` entry, and
``benchmarks/results/baseline.json`` pins the result (the golden gate
holds the pin equal to a fresh run).  These tests check the structural
invariants of those pinned tables -- rows, columns, labels -- without
re-running anything; ``test_paper_claims.py`` asserts the paper's
shapes on the same rows.
"""

import pytest

from tests.support.pinned_tables import pinned_table


def test_fig7_rows_and_render():
    table = pinned_table("fig7_sequential_chains")
    # Chain lengths 1-5, six packet sizes each.
    assert len(table.rows) == 30
    assert table.column("chain_len") == [n for n in range(1, 6)
                                         for _ in range(6)]
    text = table.render()
    assert "Figure 7" in text and "chain_len" in text


def test_fig8_covers_all_prototype_nfs():
    table = pinned_table("fig8_nf_complexity")
    assert table.column("nf") == ["forwarder", "loadbalancer", "firewall",
                                  "monitor", "vpn", "ids"]
    for row in table.rows:
        assert all(value > 0 for value in row[1:])


def test_fig9_columns_align():
    table = pinned_table("fig9_cycles_sweep")
    assert table.column("cycles") == [1, 300, 900, 1500, 2100, 2700, 3000]
    assert len(table.headers) == len(table.rows[0])


def test_fig11_degrees():
    table = pinned_table("fig11_parallelism_degree")
    assert table.column("degree") == [2, 3, 4, 5]


def test_fig12_structures_have_expected_lengths():
    table = pinned_table("fig12_graph_structures")
    lengths = dict(zip(table.column("structure"),
                       table.column("equivalent_length")))
    assert lengths["(1) sequential"] == 4
    assert lengths["(2) all-parallel"] == 1
    assert lengths["(4) 1->2->1"] == 3


def test_fig13_rows():
    table = pinned_table("fig13_real_world_chains")
    assert table.column("chain") == ["north-south", "west-east"]
    rows = {row[0]: row for row in table.rows}
    ns, we = rows["north-south"], rows["west-east"]
    # Compiled graphs match the paper's Fig. 13 structures.
    assert "(" in ns[1] and "loadbalancer" in ns[1]  # mid-chain parallel block
    assert ns[1].startswith("vpn")
    assert "[v2]" in we[1]  # LB on its own copy


def test_table4_rows():
    table = pinned_table("table4_rtc_comparison")
    assert table.column("chain_len") == [1, 2, 3]
    for row in table.rows:
        length, cores = row[0], row[1]
        assert cores == length + 2


def test_experiment_table_column_lookup_error():
    table = pinned_table("fig13_real_world_chains")
    with pytest.raises(ValueError):
        table.column("nonexistent")
