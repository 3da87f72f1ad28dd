"""The hand-written stage walks: the differential oracle for the kernel.

Until the bound stage program landed (``repro.core.closures``, now
executed by ``repro.dataplane.functional.FunctionalDataplane.process``
for a whole graph and, as its ``slice_subgraph``, for each cross-server
slice), the walk -- copies at a stage's entry, every NF of the stage on
the pre-stage buffers, drops deferred to the stage end, then the
merge -- was written out twice
under ``src/`` and re-derived from the graph object model for every
packet: ``FunctionalDataplane.process`` (scaled) and
``multiserver.ServerStage.process`` (a stage slice).  This module is
those two loops and the ``assign_instances`` they called, moved verbatim
but for the instance-health gate, which left the functional plane
(``self.`` state became one small class each; the merge is the per-op
reference of :mod:`tests.support.merge_reference`, so neither oracle
leans on the code it checks).  The split they apply is today's: crc32
of the packet's ``flow_key()``, since this module is an oracle for the
walk, not for the key.

``tests/integration/test_kernel_walk_parity.py`` holds the kernel to it:
same output bytes, same counters, same per-NF packet counts.  The slice
walk still reads the parent graph's copies at the slice's stage offset,
so it also checks ``slice_subgraph``'s rebasing of them.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Mapping, Optional

from repro.core.graph import ORIGINAL_VERSION, ServiceGraph
from repro.dataplane.flowsplit import packet_key
from repro.dataplane.functional import _counts, instantiate_nfs
from repro.net.packet import HEADER_COPY_BYTES, Packet
from repro.nfs.base import NetworkFunction

from .merge_reference import apply_merge_ops_reference

__all__ = ["ReferenceWalk", "ReferenceSliceWalk", "assign_instances_reference"]

_NO_ASSIGNMENT: Dict[str, int] = {}


def assign_instances_reference(
    key: Optional[bytes],
    counts: Mapping[str, int],
) -> Dict[str, int]:
    scaled = {name: c for name, c in counts.items() if c > 1}
    if not scaled:
        return _NO_ASSIGNMENT
    digest = None if key is None else zlib.crc32(key)
    return {name: 0 if digest is None else digest % count
            for name, count in scaled.items()}


class ReferenceWalk:
    """``FunctionalDataplane`` as it stood: one packet, the whole graph."""

    def __init__(self, graph: ServiceGraph, scale=None):
        self.graph = graph
        self.scale = _counts(graph, scale)
        self._scaled = {n: c for n, c in self.scale.items() if c > 1}
        self.nfs = instantiate_nfs(graph, scale=self.scale)
        self.processed = 0
        self.emitted = 0
        self.dropped = 0

    def process(self, pkt: Packet) -> Optional[Packet]:
        self.processed += 1
        assignment = (
            assign_instances_reference(packet_key(pkt), self._scaled)
            if self._scaled else {}
        )
        versions: Dict[int, Packet] = {ORIGINAL_VERSION: pkt}

        for stage_index, stage in enumerate(self.graph.stages):
            # Copies scheduled at this stage's entry (from current v1).
            for copy in self.graph.copies:
                if copy.stage_index != stage_index:
                    continue
                base = versions[ORIGINAL_VERSION]
                if base.nil:
                    versions[copy.version] = base.make_nil()
                elif copy.header_only:
                    versions[copy.version] = base.header_copy(
                        copy.version, HEADER_COPY_BYTES
                    )
                else:
                    versions[copy.version] = base.full_copy(copy.version)

            # All NFs of the stage observe the pre-stage buffers; drops
            # take effect only after the stage (parallel semantics).
            newly_dropped: List[int] = []
            for entry in stage:
                buffer = versions[entry.version]
                if buffer.nil:
                    continue
                name = entry.node.name
                index = (0 if self.scale[name] == 1
                         else assignment.get(name, 0))
                label = name if self.scale[name] == 1 else f"{name}#{index}"
                ctx = self.nfs[label].handle(buffer)
                if ctx.dropped:
                    newly_dropped.append(entry.version)
            for version in newly_dropped:
                versions[version] = versions[version].make_nil()

        merged = apply_merge_ops_reference(versions, self.graph.merge_ops)
        if merged is None:
            self.dropped += 1
        else:
            self.emitted += 1
        return merged


class ReferenceSliceWalk:
    """``multiserver.ServerStage`` as it stood: one packet, one slice."""

    def __init__(self, graph: ServiceGraph, server_slice, merge_ops,
                 nfs: Dict[str, NetworkFunction]):
        self.graph = graph
        self.slice = server_slice
        self.merge_ops = merge_ops
        self.nfs = nfs
        self.processed = 0
        self.dropped = 0

    def process(self, pkt: Packet) -> Optional[Packet]:
        self.processed += 1
        versions: Dict[int, Packet] = {ORIGINAL_VERSION: pkt}
        global_offset = self.graph.stages.index(self.slice.stages[0])

        for local_index, stage in enumerate(self.slice.stages):
            stage_index = global_offset + local_index
            for copy in self.graph.copies:
                if copy.stage_index != stage_index:
                    continue
                base = versions[ORIGINAL_VERSION]
                if base.nil:
                    versions[copy.version] = base.make_nil()
                elif copy.header_only:
                    versions[copy.version] = base.header_copy(
                        copy.version, HEADER_COPY_BYTES
                    )
                else:
                    versions[copy.version] = base.full_copy(copy.version)

            newly_dropped = []
            for entry in stage:
                buffer = versions[entry.version]
                if buffer.nil:
                    continue
                ctx = self.nfs[entry.node.name].handle(buffer)
                if ctx.dropped:
                    newly_dropped.append(entry.version)
            for version in newly_dropped:
                versions[version] = versions[version].make_nil()

        merged = apply_merge_ops_reference(versions, self.merge_ops)
        if merged is None:
            self.dropped += 1
        return merged
