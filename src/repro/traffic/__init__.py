"""Traffic generation substrate (the paper's DPDK pktgen stand-in)."""

from .generator import (
    DATACENTER_MIX,
    FIXED_64B,
    FlowGenerator,
    PacketSizeDistribution,
    TrafficSource,
    feed_list,
)
from .shapes import (
    BurstTrainShape,
    ConstantShape,
    DiurnalShape,
    FlashCrowdShape,
    LoadShape,
)

__all__ = [
    "PacketSizeDistribution",
    "FIXED_64B",
    "DATACENTER_MIX",
    "FlowGenerator",
    "TrafficSource",
    "feed_list",
    "LoadShape",
    "ConstantShape",
    "DiurnalShape",
    "FlashCrowdShape",
    "BurstTrainShape",
]
