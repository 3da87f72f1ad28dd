"""Cross-server NF parallelism (§7 "NFP Scalability").

Executes a service graph partitioned over several servers under the
paper's bandwidth constraint: "each server sends only one copy of a
packet to the next server".  Each server runs its slice as a service
graph of its own (:func:`repro.core.partition.slice_subgraph`) on a
:class:`~repro.dataplane.functional.FunctionalDataplane`, with full NFP
semantics (versions, copies, barriers, nil propagation) and a
*slice-local merge* at its egress -- copy versions never leave the
server; only the (merged) original crosses a link, tagged with an NSH
shim carrying the flight metadata.

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
from typing import Iterable, List, Optional

from ..core.graph import ORIGINAL_VERSION, ServiceGraph
from ..core.partition import ServerSlice, partition_graph, slice_subgraph
from ..dataplane.functional import FunctionalDataplane
from ..net.headers import ETH_HEADER_LEN
from ..net.packet import Packet, PacketMeta
from ..nfs.base import NetworkFunction
from ..telemetry.hooks import TelemetryHub
from .nsh import NshTag, decapsulate, encapsulate

__all__ = ["LinkStats", "MultiServerDataplane", "publish_core_util"]


def publish_core_util(hub: TelemetryHub, name: str, server_slice: ServerSlice,
                      capacity: int) -> None:
    """Gauge ``multiserver.server.<name>.core_util``: the cores the slice
    takes over the ``capacity`` its server offers (skipped at 0)."""
    if capacity > 0:
        hub.gauge(f"multiserver.server.{name}.core_util",
                  server_slice.total_cores / capacity)


@dataclass
class LinkStats:
    """Per-link accounting proving the one-copy constraint.

    The one ledger of an inter-server link, on the functional plane and
    (as its ``_Link``) on the timed one, which publishes it.
    """

    frames: int = 0
    bytes: int = 0
    nil_frames: int = 0

    def publish(self, hub: TelemetryHub, index: int, gbps: float,
                offered_mpps: Optional[float] = None) -> None:
        """Gauge link ``index``'s wire time at ``gbps``
        (``multiserver.link<i>.busy_us``) and, at a known offered rate,
        its occupancy of that rate (``.occupancy``)."""
        hub.gauge(f"multiserver.link{index}.busy_us",
                  self.bytes * 8 / (gbps * 1000.0))
        if offered_mpps:
            mean_bits = self.bytes * 8 / self.frames
            hub.gauge(f"multiserver.link{index}.occupancy",
                      offered_mpps * mean_bits / (gbps * 1000.0))


class MultiServerDataplane:
    """A service graph spread over several servers, linked by NSH.

    The graph is split greedily, first fit, over identical boxes of
    ``cores_per_server`` cores
    (:func:`repro.core.partition.partition_graph`); a placement's
    explicit slices run on the timed pipeline
    (:func:`repro.placement.runtime.build_timed`).

    This plane has no clock, so it publishes no gauges: the
    ``multiserver.*`` namespace (per-server core utilisation, per-link
    wire time and occupancy) comes from the timed pipeline,
    :func:`repro.eval.harness.measure_placed`.  Its :class:`LinkStats`
    still count every frame that crosses.
    """

    def __init__(self, graph: ServiceGraph, cores_per_server: int):
        self.graph = graph
        self.slices = partition_graph(graph, cores_per_server)
        self.servers = [FunctionalDataplane(slice_subgraph(graph, s))
                        for s in self.slices]
        self.links: List[LinkStats] = [LinkStats() for _ in self.servers[:-1]]
        self._next_pid = 0
        self.emitted = 0
        self.dropped = 0

    @property
    def num_servers(self) -> int:
        return len(self.servers)

    def nf(self, name: str) -> NetworkFunction:
        for server in self.servers:
            if name in server.nfs:
                return server.nfs[name]
        raise KeyError(name)

    def process(self, pkt: Packet) -> Optional[Packet]:
        """Run one packet across all servers -- a burst of one;
        ``None`` means dropped."""
        return self.process_many((pkt,))[0]

    def process_many(self, packets: Iterable[Packet]) -> List[Optional[Packet]]:
        """Run a burst across all servers, one slice at a time.

        Each server runs its slice over the burst's surviving packets in
        one ``process_many``; then every packet of the burst crosses the
        link, in burst order, as exactly one (possibly nil) frame.
        """
        pkts = list(packets)
        # Ingress classification: assign flight metadata.
        for pkt in pkts:
            self._next_pid = (self._next_pid + 1) % (1 << 40)
            pkt.meta = PacketMeta(mid=1, pid=self._next_pid,
                                  version=ORIGINAL_VERSION)
        #: Per packet: the frame in flight, ``None`` once it is nil.
        current: List[Optional[Packet]] = list(pkts)
        for index, server in enumerate(self.servers):
            alive = [i for i, frame in enumerate(current) if frame is not None]
            outputs = server.process_many([current[i] for i in alive])
            for i, out in zip(alive, outputs):
                current[i] = out
            if index < len(self.links):
                current = [self._cross(index, pkt.meta, frame)
                           for pkt, frame in zip(pkts, current)]
        lost = current.count(None)
        self.dropped += lost
        self.emitted += len(current) - lost
        return current

    def _cross(self, index: int, meta: PacketMeta,
               frame: Optional[Packet]) -> Optional[Packet]:
        """Carry one packet over link ``index``: exactly one frame,
        tagged; returns what the next server receives (``None``: nil)."""
        nil = frame is None
        if nil:
            # A dropped packet still crosses as a minimal nil
            # notification so downstream accounting completes.
            carrier = Packet(
                bytearray(ETH_HEADER_LEN), meta=meta,
                wire_len=ETH_HEADER_LEN,
            )
            carrier.eth.ethertype = 0x0800
        else:
            carrier = frame
        tag = NshTag(1, index + 1, meta, nil=nil)
        encapsulate(carrier, tag)
        link = self.links[index]
        link.frames += 1
        link.bytes += carrier.wire_len
        if nil:
            link.nil_frames += 1
        # ... wire ...
        received_tag = decapsulate(carrier)
        assert received_tag.index == index + 1
        return None if received_tag.nil else carrier
