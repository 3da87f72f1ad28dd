"""Timed cross-server execution: chained DES servers over links.

Each slice of a partitioned graph runs as a full simulated NFP server
(classifier, runtimes, mergers, pinned cores); servers are chained by
simulated links that NSH-tag each frame, serialise it at the link rate,
and hand it to the next server's NIC.  Because a slice is itself a
valid service graph (copy versions live and die inside one stage), the
slice servers compose without any special-casing -- each merges its
local copies into version 1 before the frame leaves the box.

End-to-end latency is measured at the last server (packets keep their
original ingress timestamp across links), so the measured penalty vs a
single box is the real queueing + serialisation cost of the links.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.graph import ServiceGraph
from ..core.partition import ServerSlice, partition_graph, slice_subgraph
from ..dataplane.server import NFPServer
from ..net.packet import Packet
from ..sim import Environment, SimParams
from .dataplane import LinkStats
from .nsh import NshTag, decapsulate, encapsulate

__all__ = ["TimedMultiServer"]


class _Link(LinkStats):
    """A point-to-point link between two slice servers.

    ``gbps``/``propagation_us`` override the NIC-rate default so a
    placement over a heterogeneous topology serialises each hop at that
    hop's real bandwidth and pays its propagation delay.  It counts
    into the functional plane's ledger (a DES drop never crosses a
    link, so ``nil_frames`` stays 0).
    """

    def __init__(self, env: Environment, params: SimParams,
                 downstream: NFPServer, index: int, path_id: int,
                 gbps: float = 0.0, propagation_us: float = 0.0):
        self.env = env
        self.params = params
        self.downstream = downstream
        self.index = index
        self.path_id = path_id
        self.gbps = gbps if gbps > 0 else params.nic_gbps
        self.propagation_us = propagation_us
        super().__init__()

    def send(self, pkt: Packet) -> None:
        tag = NshTag(self.path_id, self.index + 1, pkt.meta)
        encapsulate(pkt, tag)
        self.frames += 1
        self.bytes += pkt.wire_len
        wire_us = (pkt.wire_len + 20) * 8 / (self.gbps * 1000.0)
        self.env.call_later(
            self.params.nic_io_us + wire_us + self.propagation_us,
            self._arrive, pkt)

    def _arrive(self, pkt: Packet) -> None:
        decapsulate(pkt)
        self.downstream.inject(pkt)


class TimedMultiServer:
    """A partitioned graph on chained simulated servers."""

    def __init__(
        self,
        env: Environment,
        params: SimParams,
        graph: ServiceGraph,
        cores_per_server: Optional[int] = None,
        num_mergers: int = 1,
        path_id: int = 1,
        slices: Optional[List[ServerSlice]] = None,
        link_specs: Optional[List] = None,
        telemetry=None,
    ):
        from ..eval.harness import deployed_from_graph

        self.env = env
        self.params = params
        self.graph = graph
        if slices is not None:
            self.slices = list(slices)
        elif cores_per_server is not None:
            self.slices = partition_graph(graph, cores_per_server)
        else:
            raise ValueError("need cores_per_server or an explicit slices list")
        if link_specs is not None and len(link_specs) != max(0, len(self.slices) - 1):
            raise ValueError("one link spec per inter-server hop required")
        self.servers: List[NFPServer] = []
        self.links: List[_Link] = []

        for server_slice in self.slices:
            sub = slice_subgraph(graph, server_slice)
            server = NFPServer(env, params, num_mergers=num_mergers,
                               telemetry=telemetry)
            server.deploy(deployed_from_graph(sub, mid=path_id))
            self.servers.append(server)

        # Chain: server i's egress feeds server i+1 through a link.
        for index in range(len(self.servers) - 1):
            spec = link_specs[index] if link_specs is not None else None
            link = _Link(
                env, params, self.servers[index + 1], index, path_id,
                gbps=getattr(spec, "gbps", 0.0) if spec is not None else 0.0,
                propagation_us=(
                    getattr(spec, "propagation_us", 0.0)
                    if spec is not None else 0.0
                ),
            )
            self.links.append(link)
            self.servers[index].on_emit = link.send

    @property
    def num_servers(self) -> int:
        return len(self.servers)

    @property
    def head(self) -> NFPServer:
        return self.servers[0]

    @property
    def tail(self) -> NFPServer:
        """Latency/throughput are recorded at the last server."""
        return self.servers[-1]

    def inject(self, pkt: Packet) -> None:
        self.head.inject(pkt)

    # ------------------------------------------------------- aggregates
    @property
    def delivered(self) -> int:
        return self.tail.rate.delivered

    @property
    def lost(self) -> int:
        return sum(s.lost for s in self.servers)

    @property
    def nil_dropped(self) -> int:
        return sum(s.nil_dropped for s in self.servers)

    @property
    def cores_used(self) -> int:
        return sum(s.cores_used for s in self.servers)
