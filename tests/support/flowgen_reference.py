"""``FlowGenerator.next_packet`` as it stood: one ``build_packet`` per packet.

Until a flow became a frame template, the generator re-derived every
packet's 54 header bytes field by field from the flow's strings: two MAC
parses, the address and port stores, the length and identification
words, a header checksum.  This module is that ``next_packet`` (and the
``_pick_flow`` it called, which returned the flow's tuple rather than
its index), moved verbatim onto a subclass so the constructor, the flow
table, the RNG and the sequence counter are the ones under test.

``tests/property/test_flow_template_differential.py`` holds the template
to it: same frame bytes, same refusals, same RNG state after each packet.
"""

from __future__ import annotations

import bisect
from typing import Tuple

from repro.net.packet import Packet, build_packet
from repro.traffic.generator import FlowGenerator

__all__ = ["ReferenceFlowGenerator"]


class ReferenceFlowGenerator(FlowGenerator):
    """The generator before templates: every packet built from scratch."""

    def _pick_flow(self) -> Tuple[str, str, int, int]:
        if self._cum_weights is None:
            return self._flows[self._sequence % len(self._flows)]
        roll = self._rng.random() * self._cum_weights[-1]
        index = bisect.bisect_left(self._cum_weights, roll)
        return self._flows[min(index, len(self._flows) - 1)]

    def next_packet(self) -> Packet:
        flow = self._pick_flow()
        self._sequence += 1
        size = self.sizes.sample(self._rng)
        payload = self._payload_fn(self._sequence) if self._payload_fn else b""
        return build_packet(
            src_ip=flow[0],
            dst_ip=flow[1],
            src_port=flow[2],
            dst_port=flow[3],
            size=size,
            payload=payload,
            # The IPv4 identification field is 16 bits; long runs wrap
            # naturally (dataplane matching never keys on the ident --
            # only repro.check cases do, and those build their own).
            identification=self._sequence & 0xFFFF,
        )
