"""Cross-server NF parallelism (§7 scalability sketch, implemented).

A compiled service graph is partitioned at stage boundaries over
several simulated servers (`repro.core.partition`); copy versions are
merged before leaving each server so every inter-server link carries
exactly one packet copy, tagged with an NSH-style shim that ferries the
NFP metadata.
"""

from .nsh import NSH_LEN, NshTag, decapsulate, encapsulate, has_nsh
from .dataplane import MultiServerDataplane
from .latency import estimate_placed_latency, link_cost_us
from .timed import TimedMultiServer

__all__ = [
    "NshTag",
    "encapsulate",
    "decapsulate",
    "has_nsh",
    "NSH_LEN",
    "MultiServerDataplane",
    "estimate_placed_latency",
    "link_cost_us",
    "TimedMultiServer",
]
