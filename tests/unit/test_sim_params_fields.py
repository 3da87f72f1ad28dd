"""Every ``SimParams`` field has a reader, and the merge rendezvous has
one price.

The sensitivity census (``tests/support/census.py``, CI's ``census``
job) finds fields no pinned value can see; the static test here finds
the cheaper case, a field nothing in ``src/`` reads at all.
"""

import ast
import dataclasses
import json
import pathlib

import pytest

from repro.core import Orchestrator, Policy
from repro.core.partition import partition_graph, slice_subgraph
from repro.dataplane import NFPServer
from repro.eval.forced import forced_parallel
from repro.eval.model import nfp_capacity, nfp_latency_floor
from repro.multiserver.latency import _slice_path_cost
from repro.sim import DEFAULT_PARAMS, VM_PARAMS, Environment, SimParams
from tests.support import census

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
PARAMS_PY = SRC / "repro" / "sim" / "params.py"

#: The Fig. 13 chains and the third compile golden, by policy order.
CHAINS = {
    "north_south": ["vpn", "monitor", "firewall", "loadbalancer"],
    "west_east": ["ids", "monitor", "loadbalancer"],
    "monitor_nat_vpn": ["monitor", "nat", "vpn"],
}


def _attribute_reads(tree: ast.AST):
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_simparams_field_is_read_outside_its_module():
    # Read directly (``params.batch_size``) or through a SimParams
    # method that something outside sim/params.py calls
    # (``params.copy_cost_us(n)`` reads ``copy_base_us``).
    outside = set()
    for path in SRC.rglob("*.py"):
        if path != PARAMS_PY:
            outside |= _attribute_reads(ast.parse(path.read_text()))
    cls = next(node for node in ast.parse(PARAMS_PY.read_text()).body
               if isinstance(node, ast.ClassDef) and node.name == "SimParams")
    for method in cls.body:
        if isinstance(method, ast.FunctionDef) and method.name in outside:
            outside |= _attribute_reads(method)
    unread = [f.name for f in dataclasses.fields(SimParams)
              if f.name not in outside]
    assert unread == [], f"SimParams fields nothing in src/ reads: {unread}"


@pytest.mark.parametrize("params, folded", [
    (DEFAULT_PARAMS, 0.0925 + 2 * 0.0005),
    (VM_PARAMS, 0.130 + 2 * 0.0005),
], ids=["containers", "vms"])
def test_merger_degree_2_anchor_survives_the_fold(params, folded):
    # One merger at degree 2 (§6.3.3): the former base plus two
    # notifications, now charged once per output packet.
    graph = forced_parallel(["firewall"] * 2, with_copy=False)
    demand = nfp_capacity(graph, params).demands["merger"]
    assert demand == params.merger_base_us
    assert 1.0 / demand == pytest.approx(1.0 / folded, rel=1e-12)


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_server_installs_the_one_rendezvous_price(name):
    deployed = Orchestrator().deploy(Policy.from_chain(CHAINS[name]))
    server = NFPServer(Environment(), DEFAULT_PARAMS)
    server.deploy(deployed)
    compiled = server.chaining.compiled_for(deployed.mid)
    graph = compiled.graph
    assert compiled.merge_delay_us == DEFAULT_PARAMS.merge_delay_us(
        graph.num_versions, graph.total_count)


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_latency_floor_charges_the_same_rendezvous(name, monkeypatch):
    graph = Orchestrator().compile(Policy.from_chain(CHAINS[name])).graph
    assert graph.needs_merger
    term = DEFAULT_PARAMS.merge_delay_us(graph.num_versions, graph.total_count)
    floor = nfp_latency_floor(graph, DEFAULT_PARAMS)
    monkeypatch.setattr(SimParams, "merge_delay_us", lambda self, v, n: 0.0)
    assert floor - nfp_latency_floor(graph, DEFAULT_PARAMS) == pytest.approx(
        term, rel=1e-12)


@pytest.mark.parametrize("name", ["north_south", "monitor_nat_vpn"])
def test_cross_server_slice_charges_its_subgraph_rendezvous(name,
                                                            monkeypatch):
    # A slice runs as its own subgraph, so its merge is that subgraph's
    # rendezvous, priced by the same formula.
    graph = Orchestrator().compile(Policy.from_chain(CHAINS[name])).graph
    slices = partition_graph(graph, cores_per_server=4)
    assert len(slices) > 1
    full = [_slice_path_cost(graph, s, DEFAULT_PARAMS) for s in slices]
    monkeypatch.setattr(SimParams, "merge_delay_us", lambda self, v, n: 0.0)
    bare = [_slice_path_cost(graph, s, DEFAULT_PARAMS) for s in slices]
    monkeypatch.undo()
    merging = 0
    for server_slice, with_merge, without in zip(slices, full, bare):
        local = slice_subgraph(graph, server_slice)
        term = (DEFAULT_PARAMS.merge_delay_us(local.num_versions,
                                              local.total_count)
                if local.needs_merger else 0.0)
        merging += local.needs_merger
        assert with_merge - without == pytest.approx(term, rel=1e-12)
    assert merging == 1


def test_committed_census_covers_every_field_and_finds_no_dead_knob():
    # The census job re-derives the document; this only checks that the
    # committed copy speaks of today's fields and defaults.
    with open(census.SENSITIVITY) as handle:
        document = json.load(handle)
    defaults = census.scalar_fields()
    assert {name: entry["default"]
            for name, entry in document["fields"].items()} == defaults
    assert document["exempt"] == census.EXEMPT
    assert census.problems(document) == []


def test_census_step():
    assert census.raised(0) == 1
    assert census.raised(32) == 64
    assert census.raised(2.0) == pytest.approx(2.2)
