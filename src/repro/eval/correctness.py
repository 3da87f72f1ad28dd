"""§6.4's correctness replay: parallel output == sequential output.

"We generate a series of packets ..., tag each packet with a unique
packet ID in the payload, and replay them to the sequential service
chain and the optimized NFP service graph.  We compare the processed
packets and find that NFP service graph could provide the same
execution results as the sequential service chain."

This module is that experiment: build the compiled graph for a chain,
run the same packet stream through :class:`FunctionalDataplane` and
:class:`SequentialReference` (with independent NF instances), and
compare outputs byte for byte -- including agreement on drops.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..core.orchestrator import Orchestrator
from ..core.policy import Policy
from ..dataplane.functional import FunctionalDataplane, SequentialReference
from ..net.packet import Packet
from ..nfs.base import create_nf
from ..traffic.generator import FlowGenerator, PacketSizeDistribution, FIXED_64B

__all__ = ["ReplayReport", "replay_chain"]


@dataclass
class ReplayReport:
    """Outcome of one replay comparison.

    Drops are recorded per packet index, per plane.  ``drop_agreements``
    is derived from the intersection of the two index sets, so two
    planes dropping the *same number* of *different* packets can never
    be reported as agreement -- any one-sided drop lands in
    ``mismatches`` instead.
    """

    chain: Tuple[str, ...]
    graph: str
    packets: int
    matches: int
    drops_parallel: List[int] = field(default_factory=list)  # pkt indices
    drops_sequential: List[int] = field(default_factory=list)
    mismatches: List[int] = field(default_factory=list)  # offending pkt indices

    @property
    def drop_agreements(self) -> int:
        return len(set(self.drops_parallel) & set(self.drops_sequential))

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def __str__(self) -> str:
        status = "OK" if self.ok else f"MISMATCH at {self.mismatches[:5]}"
        return (
            f"replay {'->'.join(self.chain)}: graph [{self.graph}] "
            f"{self.matches}/{self.packets} byte-identical, "
            f"{self.drop_agreements} agreed drops -- {status}"
        )


def _tagged_flow_generator(sizes: PacketSizeDistribution, seed: int) -> FlowGenerator:
    """Packets carrying a unique ID in the payload, as in §6.4."""

    def payload(sequence: int) -> bytes:
        return struct.pack("!Q", sequence) + b"replay"

    # Sizes below 80 B cannot carry the tag; bump the floor.
    points = [(max(size, 80), w) for size, w in sizes.points]
    return FlowGenerator(
        num_flows=32,
        sizes=PacketSizeDistribution(points, name=f"{sizes.name}+tag"),
        seed=seed,
        payload_fn=payload,
    )


def replay_chain(
    chain: Sequence[str],
    sizes: PacketSizeDistribution = FIXED_64B,
) -> ReplayReport:
    """Replay a tagged stream of 200 packets (seed 7) through parallel
    and sequential execution."""
    packets = 200
    graph = Orchestrator().compile(
        Policy.from_chain(list(chain), name="replay")).graph

    parallel = FunctionalDataplane(graph)
    sequential = SequentialReference(
        [create_nf(kind, name=f"seq-{kind}-{i}") for i, kind in enumerate(chain)]
    )

    gen_a = _tagged_flow_generator(sizes, 7)
    gen_b = _tagged_flow_generator(sizes, 7)

    matches = 0
    drops_parallel: List[int] = []
    drops_sequential: List[int] = []
    mismatches: List[int] = []
    for index in range(packets):
        pkt_par = gen_a.next_packet()
        pkt_seq = gen_b.next_packet()
        assert bytes(pkt_par.buf) == bytes(pkt_seq.buf), "generators diverged"

        out_par = parallel.process(pkt_par)
        out_seq = sequential.process(pkt_seq)
        if out_par is None:
            drops_parallel.append(index)
        if out_seq is None:
            drops_sequential.append(index)
        if out_par is None and out_seq is None:
            continue  # agreed drop, derived from the index lists
        if (
            out_par is not None
            and out_seq is not None
            and bytes(out_par.buf) == bytes(out_seq.buf)
        ):
            matches += 1
        else:
            mismatches.append(index)

    return ReplayReport(
        chain=tuple(chain),
        graph=graph.describe(),
        packets=packets,
        matches=matches,
        drops_parallel=drops_parallel,
        drops_sequential=drops_sequential,
        mismatches=mismatches,
    )
