"""A table set installed through the chaining manager alone is complete.

``ChainingManager.install`` is the documented way to push tables into a
server (Fig. 3: the orchestrator talks to the chaining manager).  What
the per-packet paths read of a graph used to live in a second table on
``NFPServer``, keyed by graph *object* and filled only by the server's
own private install -- so a recompiled graph (same NFs, fresh object)
pushed through the manager killed the event loop with a ``KeyError`` at
its first packet.  The record is per MID now and the manager builds it.
"""

from repro.core import Orchestrator, Policy
from repro.core.tables import build_tables
from repro.dataplane import NFPServer
from repro.net import build_packet
from repro.sim import DEFAULT_PARAMS, Environment

WEST_EAST = ["ids", "monitor", "loadbalancer"]


def test_recompiled_graph_installed_through_the_manager_carries_traffic():
    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS, flow_cache_size=16)
    server.keep_packets = True
    policy = Policy.from_chain(WEST_EAST)
    deployed = Orchestrator().deploy(policy)
    server.deploy(deployed)
    for ident in (1, 2):
        server.inject(build_packet(size=128, identification=ident))
    env.run()
    assert server.emitted == 2 and len(server.flow_cache) == 1
    invalidations = server.flow_cache.invalidations

    # A recompile: same NF names, a fresh graph object, the next MID.
    recompiled = Orchestrator().compile(policy).graph
    assert recompiled is not deployed.graph
    new_mid = deployed.mid + 1
    server.chaining.install(build_tables(recompiled, new_mid))
    assert server.chaining.closures_compiled == 2
    assert len(server.flow_cache) == 0
    assert server.flow_cache.invalidations == invalidations + 1

    server.emitted_packets.clear()
    for ident in (3, 4, 5):
        server.inject(build_packet(size=128, identification=ident))
    env.run()

    assert [p.meta.mid for p in server.emitted_packets] == [new_mid] * 3
    assert sorted(p.ipv4.identification for p in server.emitted_packets) == [3, 4, 5]
    report = server.conservation_report()
    assert report["unaccounted"] == 0 and report["emitted"] == 5, report
    assert report["at_depth"] == 0 and report["flight_depth"] == 0, report

    # Whoever installs, the record is whole: plan from the manager, the
    # SimParams-dependent merge delay from the server's install listener.
    record = server.chaining.compiled_for(new_mid)
    assert record.graph is recompiled
    assert record.merge_plan is not None
    assert record.merge_delay_us == server.chaining.compiled_for(
        deployed.mid).merge_delay_us
