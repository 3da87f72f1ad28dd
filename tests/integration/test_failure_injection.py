"""Failure injection: crashing NFs must not take down the dataplane.

The paper's container isolation bounds a buggy NF's blast radius; our
``NetworkFunction.handle`` fault boundary models that.  These tests
inject deterministic faults into NFs placed at different positions in
parallel graphs and verify the pipeline keeps running, accounting for
every packet.
"""

import pytest

from repro.core import Orchestrator, Policy
from repro.dataplane import FunctionalDataplane, NFPServer, instantiate_nfs
from repro.net import build_packet
from repro.nfs import Monitor, NetworkFunction, ProcessingContext
from repro.sim import DEFAULT_PARAMS, Environment
from repro.traffic import FlowGenerator, TrafficSource


class FaultyMonitor(Monitor):
    """A monitor that crashes on every Nth packet."""

    def __init__(self, name=None, crash_every: int = 3):
        super().__init__(name)
        self.crash_every = crash_every
        self._seen = 0

    def process(self, pkt, ctx: ProcessingContext) -> None:
        self._seen += 1
        if self._seen % self.crash_every == 0:
            raise RuntimeError(f"injected fault #{self._seen}")
        super().process(pkt, ctx)


def test_faulty_nf_contained_in_functional_plane():
    graph = Orchestrator().compile(
        Policy.from_chain(["firewall", "monitor"])
    ).graph
    nfs = instantiate_nfs(graph)
    nfs["monitor"] = FaultyMonitor(name="monitor", crash_every=3)
    plane = FunctionalDataplane(graph, nfs)

    outputs = [plane.process(build_packet(src_port=i, size=64))
               for i in range(30)]
    # A crash in a *parallel reader* drops its version -> whole packet.
    dropped = sum(1 for out in outputs if out is None)
    assert dropped == 10
    assert nfs["monitor"].errors == 10
    # The plane never raised and kept processing after every fault.
    assert plane.processed == 30


def test_faulty_nf_contained_in_des_server():
    def factory(kind, name):
        if kind == "monitor":
            return FaultyMonitor(name=name, crash_every=5)
        from repro.nfs import create_nf

        return create_nf(kind, name=name)

    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS, nf_factory=factory)
    server.deploy(
        Orchestrator().deploy(Policy.from_chain(["firewall", "monitor"]))
    )
    TrafficSource(env, server.inject, 0.5, 50,
                  flows=FlowGenerator(num_flows=4, seed=1), poisson=False)
    env.run()

    assert server.rate.delivered + server.nil_dropped == 50
    assert server.nil_dropped == 10
    assert server.nfs["monitor"].errors == 10
    # No stuck flight state or half-filled merges.
    assert server._flight == {}
    assert all(m.at == {} for m in server.mergers)


def test_fault_in_sequential_position_stops_that_packet_only():
    class FaultyFirstHop(NetworkFunction):
        KIND = "monitor"  # reuse a registered kind's profile

        def process(self, pkt, ctx):
            if pkt.tcp.src_port % 2 == 0:
                raise ValueError("boom")

    graph = Orchestrator().compile(
        Policy.from_chain(["monitor", "nat", "vpn"])
    ).graph
    nfs = instantiate_nfs(graph)
    # Monitor rides a copy version in this graph; crash it there.
    nfs["monitor"] = FaultyFirstHop(name="monitor")
    plane = FunctionalDataplane(graph, nfs)

    results = [plane.process(build_packet(src_port=port, size=128))
               for port in range(100, 110)]
    assert sum(1 for r in results if r is None) == 5
    assert sum(1 for r in results if r is not None) == 5
    for out in results:
        if out is not None:
            assert out.has_ah  # the surviving path completed the VPN
