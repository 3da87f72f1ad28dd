"""The Fig. 4 view of the step table against the FT derivation it replaced.

``repro.core.closures.table_view`` renders a graph's CT row and per-NF
Forwarding Tables from its ``CompiledGraph`` -- the record every plane
executes.  ``tests/support/ft_reference.py`` is the code that used
to derive them a second time from the graph object model.  On every
graph the fuzzer's generator compiles at seeds 0, 3 and 12 (400 cases
each), and on the Fig. 13 chains, both must print the same.
"""

import pytest

from repro.check.generator import CaseGenerator
from repro.core import CompiledGraph, CTEntry, Orchestrator, Policy, table_view
from repro.eval.experiments import NORTH_SOUTH_CHAIN, WEST_EAST_CHAIN
from tests.support.ft_reference import reference_table_view

CASES = 400


def _fuzz_graphs(seed):
    generator = CaseGenerator(seed=seed, packets_per_case=1)
    for index in range(CASES):
        case = generator.generate(index)
        yield Orchestrator(action_table=case.action_table()).compile(
            case.policy()).graph


@pytest.mark.parametrize("seed", [0, 3, 12])
def test_table_view_matches_the_old_ft_on_fuzz_graphs(seed):
    graphs = list(_fuzz_graphs(seed))
    for mid, graph in enumerate(graphs, start=1):
        view = table_view(CompiledGraph(graph), CTEntry("*", mid))
        assert view == reference_table_view(graph, mid), graph.describe()
    # The corpus reaches every shape the view renders differently.
    assert any(g.needs_merger for g in graphs)
    assert any(not g.needs_merger for g in graphs)
    assert any(not c.header_only for g in graphs for c in g.copies)
    assert any(c.header_only for g in graphs for c in g.copies)
    assert any(c.stage_index > 0 for g in graphs for c in g.copies)


@pytest.mark.parametrize("chain", [NORTH_SOUTH_CHAIN, WEST_EAST_CHAIN,
                                   ("monitor", "nat", "vpn")],
                         ids=["north_south", "west_east", "monitor_nat_vpn"])
def test_table_view_matches_the_old_ft_on_fig13_chains(chain):
    graph = Orchestrator().compile(Policy.from_chain(list(chain))).graph
    match = ("10.0.0.1", "10.0.0.2", 6, 1, 2)
    view = table_view(CompiledGraph(graph), CTEntry(match, 4))
    assert view == reference_table_view(graph, 4, match)
