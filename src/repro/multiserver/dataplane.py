"""Cross-server NF parallelism (§7 "NFP Scalability").

Executes a service graph partitioned over several servers under the
paper's bandwidth constraint: "each server sends only one copy of a
packet to the next server".  Each :class:`ServerStage` runs its slice
of stages with full NFP semantics (versions, copies, barriers, nil
propagation) and performs a *slice-local merge* at its egress -- copy
versions never leave the server; only the (merged) original crosses a
link, tagged with an NSH shim carrying the flight metadata.

The pipeline:

1. the ingress server classifies (assigns MID/PID) and runs slice 0;
2. at egress, the slice's copy-version writes are merged into v1, the
   NSH shim is pushed, and the frame crosses the link;
3. the next server pops the shim, recovers the metadata, runs its
   slice, and so on;
4. the last server emits the final packet (no shim on the way out).

A drop anywhere tags the shim nil, so downstream servers skip all
processing for that packet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.closures import CompiledGraph
from ..core.graph import MergeOp, ORIGINAL_VERSION, ServiceGraph
from ..core.partition import ServerSlice, partition_graph
from ..dataplane.functional import StageKernel
from ..net.headers import ETH_HEADER_LEN
from ..net.packet import Packet, PacketMeta
from ..nfs.base import NetworkFunction, create_nf
from ..telemetry.hooks import NULL_HUB, TelemetryHub
from ..telemetry.tracer import SpanKind
from .nsh import NshTag, decapsulate, encapsulate

__all__ = ["ServerStage", "MultiServerDataplane", "slice_merge_ops"]


def slice_merge_ops(graph: ServiceGraph, server_slice: ServerSlice) -> List[MergeOp]:
    """The merge operations whose source versions live in this slice.

    Copy versions are stage-local, so each graph MO belongs to exactly
    one slice -- the one holding the stage where its source version
    runs.
    """
    local_versions = {
        entry.version
        for stage in server_slice.stages
        for entry in stage
        if entry.version != ORIGINAL_VERSION
    }
    return [op for op in graph.merge_ops if op.src_version in local_versions]


class ServerStage(StageKernel):
    """One server running a slice of a partitioned graph.

    :meth:`~repro.dataplane.functional.StageKernel.process` over the
    slice's stages of the graph's program, merging the slice's own
    operations: returns the merged v1, or ``None`` on drop.
    """

    def __init__(
        self,
        graph: ServiceGraph,
        server_slice: ServerSlice,
        nf_instances: Optional[Dict[str, NetworkFunction]] = None,
    ):
        self.graph = graph
        self.slice = server_slice
        self.merge_ops = slice_merge_ops(graph, server_slice)
        if nf_instances is None:
            nf_instances = {
                entry.node.name: create_nf(entry.node.kind, name=entry.node.name)
                for stage in server_slice.stages for entry in stage}
        first = graph.stages.index(server_slice.stages[0])
        self._bind(
            CompiledGraph(graph).program[first:first + len(server_slice.stages)],
            self.merge_ops, nf_instances)


@dataclass
class LinkStats:
    """Per-link accounting proving the one-copy constraint."""

    frames: int = 0
    bytes: int = 0
    nil_frames: int = 0


class MultiServerDataplane:
    """A service graph spread over several servers, linked by NSH.

    Two construction modes:

    * ``cores_per_server`` -- the legacy greedy first-fit split over
      identical boxes (:func:`repro.core.partition.partition_graph`);
    * ``slices`` -- an explicit placement (e.g. from
      ``Orchestrator.place``), optionally with ``server_names``,
      per-server ``server_cores`` and per-hop ``link_specs`` (objects
      exposing ``gbps``/``propagation_us``) so the utilisation gauges
      reflect the real topology.

    With telemetry attached, the dataplane emits per-server
    core-utilisation gauges (``multiserver.server.<name>.core_util``)
    at deploy time and per-link occupancy gauges
    (``multiserver.link<i>.busy_us`` wire time; plus
    ``multiserver.link<i>.occupancy`` as a fraction of the link's rate
    when ``offered_mpps`` is known) as frames cross.
    """

    def __init__(
        self,
        graph: ServiceGraph,
        cores_per_server: Optional[int] = None,
        path_id: int = 1,
        telemetry: Optional[TelemetryHub] = None,
        slices: Optional[List[ServerSlice]] = None,
        server_names: Optional[List[str]] = None,
        server_cores: Optional[List[int]] = None,
        link_specs: Optional[List] = None,
        offered_mpps: Optional[float] = None,
    ):
        self.graph = graph
        self.path_id = path_id
        self.telemetry = telemetry if telemetry is not None else NULL_HUB
        if slices is not None:
            self.slices = list(slices)
        elif cores_per_server is not None:
            self.slices = partition_graph(graph, cores_per_server)
            if server_cores is None:
                server_cores = [cores_per_server] * len(self.slices)
        else:
            raise ValueError("need cores_per_server or an explicit slices list")
        self.servers = [ServerStage(graph, s) for s in self.slices]
        if server_names is not None and len(server_names) != len(self.servers):
            raise ValueError("one server name per slice required")
        self.server_names = (
            list(server_names) if server_names is not None
            else [f"server{i}" for i in range(len(self.servers))]
        )
        if link_specs is not None and len(link_specs) != max(0, len(self.servers) - 1):
            raise ValueError("one link spec per inter-server hop required")
        self.link_specs = list(link_specs) if link_specs is not None else None
        self.offered_mpps = offered_mpps
        for server in self.servers:
            for nf in server.nfs.values():
                nf.telemetry = self.telemetry
        self.links: List[LinkStats] = [LinkStats() for _ in self.servers[:-1]]
        self._next_pid = 0
        self.emitted = 0
        self.dropped = 0
        if self.telemetry.enabled and server_cores is not None:
            for index, (name, server_slice) in enumerate(
                zip(self.server_names, self.slices)
            ):
                capacity = server_cores[index]
                if capacity > 0:
                    self.telemetry.gauge(
                        f"multiserver.server.{name}.core_util",
                        server_slice.total_cores / capacity,
                    )

    @property
    def num_servers(self) -> int:
        return len(self.servers)

    def nf(self, name: str) -> NetworkFunction:
        for server in self.servers:
            if name in server.nfs:
                return server.nfs[name]
        raise KeyError(name)

    def process(self, pkt: Packet) -> Optional[Packet]:
        """Run one packet across all servers; ``None`` means dropped."""
        # Ingress classification: assign flight metadata.
        self._next_pid = (self._next_pid + 1) % (1 << 40)
        pkt.meta = PacketMeta(mid=self.path_id, pid=self._next_pid,
                              version=ORIGINAL_VERSION)

        current: Optional[Packet] = pkt
        nil = False
        for index, server in enumerate(self.servers):
            if not nil:
                current = server.process(current)
                if current is None:
                    nil = True
            if index < len(self.links):
                # Cross the link: exactly one frame per packet, tagged.
                if current is not None and not nil:
                    carrier = current
                else:
                    # A dropped packet still crosses as a minimal nil
                    # notification so downstream accounting completes.
                    carrier = Packet(
                        bytearray(ETH_HEADER_LEN), meta=pkt.meta,
                        wire_len=ETH_HEADER_LEN,
                    )
                    carrier.eth.ethertype = 0x0800
                tag = NshTag(self.path_id, index + 1, pkt.meta, nil=nil)
                encapsulate(carrier, tag)
                link = self.links[index]
                link.frames += 1
                link.bytes += carrier.wire_len
                if nil:
                    link.nil_frames += 1
                hub = self.telemetry
                if hub.enabled:
                    # Cross-server hop: exactly one (possibly nil) frame.
                    hub.inc("multiserver.hops")
                    hub.inc(f"multiserver.link{index}.frames")
                    hub.inc(f"multiserver.link{index}.bytes", carrier.wire_len)
                    if nil:
                        hub.inc(f"multiserver.link{index}.nil_frames")
                    if self.link_specs is not None:
                        spec = self.link_specs[index]
                        hub.gauge(
                            f"multiserver.link{index}.busy_us",
                            link.bytes * 8 / (spec.gbps * 1000.0),
                        )
                        if self.offered_mpps:
                            mean_bits = link.bytes * 8 / link.frames
                            hub.gauge(
                                f"multiserver.link{index}.occupancy",
                                self.offered_mpps * mean_bits
                                / (spec.gbps * 1000.0),
                            )
                    # The functional pipeline has no clock; hop ordinal
                    # stands in for time so spans still order causally.
                    hub.span(SpanKind.ENQUEUE, float(index), pkt.meta,
                             name=f"link{index}", args={"nil": nil})
                # ... wire ...
                received_tag = decapsulate(carrier)
                assert received_tag.index == index + 1
                nil = nil or received_tag.nil
                if not nil:
                    current = carrier
        if nil or current is None:
            self.dropped += 1
            return None
        self.emitted += 1
        return current
