"""Modular NF pipelines and the OpenBox / OpenBox+NFP transformations.

A :class:`BlockPipeline` is the (linearised) processing pipeline of one
modular NF -- the per-packet block sequence of Fig. 15's left side.
Two transformations reproduce the figure:

* :func:`openbox_merge` -- concatenate two NFs' pipelines while sharing
  common prefix blocks (OpenBox's "sharing common building blocks"):
  the classic Firewall + IPS merge shares ReadPackets and the
  HeaderClassifier, leaving Alert(FW), DPI, Alert(IPS), Drop, Output.
* :func:`nfp_parallelize` -- run Algorithm 1 over adjacent merged
  blocks and pack independent ones into parallel stages, exactly as the
  NFP compiler does for whole NFs.  In Fig. 15 this lets Alert(FW) run
  beside DPI, shortening the critical path further.

Costs are per-packet microseconds; :meth:`BlockPipeline.critical_path`
is the figure's latency metric.
"""

from __future__ import annotations

from typing import List, Sequence

from ..core.dependency import can_share_buffer
from .blocks import Block

__all__ = ["BlockPipeline", "openbox_merge", "nfp_parallelize", "StagedPipeline"]


class BlockPipeline:
    """A sequential pipeline of blocks (one modular NF, or a merged one)."""

    def __init__(self, name: str, blocks: Sequence[Block]):
        if not blocks:
            raise ValueError("pipeline needs at least one block")
        self.name = name
        self.blocks = list(blocks)

    @property
    def total_cost(self) -> float:
        return sum(block.cost_us for block in self.blocks)

    def critical_path(self) -> float:
        """Sequential pipelines: the critical path is the full sum."""
        return self.total_cost

    def block_names(self) -> List[str]:
        return [block.name for block in self.blocks]

    def __len__(self) -> int:
        return len(self.blocks)

    def __repr__(self) -> str:
        return f"BlockPipeline({self.name}: {' -> '.join(self.block_names())})"


class StagedPipeline:
    """A pipeline whose stages may hold several parallel blocks."""

    def __init__(self, name: str, stages: Sequence[Sequence[Block]]):
        if not stages or any(not s for s in stages):
            raise ValueError("stages must be non-empty")
        self.name = name
        self.stages = [list(stage) for stage in stages]

    def critical_path(self) -> float:
        """Per stage, only the slowest parallel block counts."""
        return sum(max(b.cost_us for b in stage) for stage in self.stages)

    @property
    def total_cost(self) -> float:
        return sum(b.cost_us for stage in self.stages for b in stage)

    def describe(self) -> str:
        parts = []
        for stage in self.stages:
            names = [b.name for b in stage]
            parts.append(names[0] if len(names) == 1 else "(" + " | ".join(names) + ")")
        return " -> ".join(parts)

    def __repr__(self) -> str:
        return f"StagedPipeline({self.name}: {self.describe()})"


def openbox_merge(first: BlockPipeline, second: BlockPipeline) -> BlockPipeline:
    """Merge two pipelines, sharing the common block prefix (OpenBox).

    Blocks from the second pipeline that are equivalent to a
    same-position block of the first are deduplicated; the remaining
    blocks are appended in order.
    """
    merged: List[Block] = list(first.blocks)
    prefix = 0
    while (
        prefix < len(first.blocks)
        and prefix < len(second.blocks)
        and first.blocks[prefix].equivalent(second.blocks[prefix])
    ):
        prefix += 1
    merged.extend(second.blocks[prefix:])
    return BlockPipeline(f"{first.name}+{second.name}", merged)


def nfp_parallelize(pipeline: BlockPipeline) -> StagedPipeline:
    """Apply NFP's parallelism analysis at block granularity.

    Greedy left-to-right stage packing: a block joins the current stage
    iff Algorithm 1 finds it parallelizable (without copy -- blocks of
    one NF share the packet buffer) with *every* block already in the
    stage, in both directions.
    """
    stages: List[List[Block]] = []
    placed_stage: dict = {}  # base name -> stage index holding it
    for block in pipeline.blocks:
        # The earliest stage this block may join: strictly after every
        # control dependency already placed.
        min_stage = 0
        for dep in block.depends_on:
            if dep in placed_stage:
                min_stage = max(min_stage, placed_stage[dep] + 1)
        placed = False
        for index in range(min_stage, len(stages)):
            current = stages[index]
            compatible = all(
                can_share_buffer(member.profile, block.profile)
                and block.base_name not in member.depends_on
                for member in current
            )
            if compatible:
                current.append(block)
                placed_stage[block.base_name] = index
                placed = True
                break
        if not placed:
            stages.append([block])
            placed_stage[block.base_name] = len(stages) - 1
    return StagedPipeline(f"{pipeline.name}||nfp", stages)
