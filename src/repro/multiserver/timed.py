"""Timed cross-server execution: chained DES servers over links.

The one cross-server executor (§7 "NFP Scalability"): each slice of a
partitioned graph runs as a full simulated NFP server (classifier,
runtimes, mergers, pinned cores); servers are chained by simulated
links that NSH-tag each frame, serialise it at the link rate, and hand
it to the next server's NIC.  Because a slice is itself a valid service
graph (copy versions live and die inside one stage), the slice servers
compose without any special-casing -- each merges its local copies into
version 1 before the frame leaves the box, so a link carries "only one
copy of a packet to the next server".  A drop never leaves its server,
so downstream servers never see it.

End-to-end latency is measured at the last server (packets keep their
original ingress timestamp across links), so the measured penalty vs a
single box is the real queueing + serialisation cost of the links.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.graph import ServiceGraph
from ..core.partition import ServerSlice, slice_subgraph
from ..dataplane.server import NFPServer
from ..net.packet import Packet
from ..sim import Environment, SimParams
from .nsh import NshTag, decapsulate, encapsulate

__all__ = ["TimedMultiServer"]


class _Link:
    """A point-to-point link between two slice servers.

    The wire is FIFO: it serialises one frame at a time, so a frame
    starts when the wire frees (``wire_free_us``) and arrives
    ``nic_io_us`` + its wire time + ``propagation_us`` after that -- a
    short frame never overtakes a long one sent before it.  ``spec`` (a
    :class:`~repro.placement.Link`) sets the hop's bandwidth and
    propagation delay; without one the link runs at the NIC rate.
    ``frames`` / ``bytes`` count what crossed: one frame per packet the
    upstream server emits, shim included.
    """

    def __init__(self, env: Environment, params: SimParams,
                 downstream: NFPServer, index: int, path_id: int, spec=None):
        self.env = env
        self.params = params
        self.downstream = downstream
        self.index = index
        self.path_id = path_id
        self.gbps = spec.gbps if spec is not None else params.nic_gbps
        self.propagation_us = spec.propagation_us if spec is not None else 0.0
        self.frames = 0
        self.bytes = 0
        self.wire_free_us = 0.0

    def send(self, pkt: Packet) -> None:
        encapsulate(pkt, NshTag(self.path_id, self.index + 1, pkt.meta))
        self.frames += 1
        self.bytes += pkt.wire_len
        wire_us = (pkt.wire_len + 20) * 8 / (self.gbps * 1000.0)
        start = max(self.env.now, self.wire_free_us)
        self.wire_free_us = start + wire_us
        self.env.call_at(
            start + (self.params.nic_io_us + wire_us + self.propagation_us),
            self._arrive, pkt)

    def _arrive(self, pkt: Packet) -> None:
        decapsulate(pkt)
        self.downstream.inject(pkt)


class TimedMultiServer:
    """A graph cut into ``slices`` on chained simulated servers.

    ``slices`` come from :func:`repro.core.partition.partition_graph`
    (greedy, identical boxes) or :func:`~repro.core.partition.partition_at`
    (a placement's cut); ``link_specs`` holds one
    :class:`~repro.placement.Link` per hop.
    """

    def __init__(
        self,
        env: Environment,
        params: SimParams,
        graph: ServiceGraph,
        slices: Sequence[ServerSlice],
        path_id: int = 1,
        link_specs: Optional[Sequence] = None,
        telemetry=None,
    ):
        from ..eval.harness import deployed_from_graph

        self.env = env
        self.params = params
        self.graph = graph
        self.slices = list(slices)
        if link_specs is not None and len(link_specs) != len(self.slices) - 1:
            raise ValueError("one link spec per inter-server hop required")
        self.servers: List[NFPServer] = []
        for server_slice in self.slices:
            server = NFPServer(env, params, telemetry=telemetry)
            server.deploy(deployed_from_graph(
                slice_subgraph(graph, server_slice), mid=path_id))
            self.servers.append(server)

        # Chain: server i's egress feeds server i+1 through a link.
        self.links: List[_Link] = []
        for index, downstream in enumerate(self.servers[1:]):
            link = _Link(env, params, downstream, index, path_id,
                         link_specs[index] if link_specs is not None else None)
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
