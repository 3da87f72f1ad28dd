"""Cross-server NF parallelism (§7 scalability sketch, implemented).

A compiled service graph is partitioned at stage boundaries over
several simulated servers (`repro.core.partition`) and run on one
plane, the timed pipeline :class:`TimedMultiServer`: copy versions are
merged before leaving each server so every inter-server link carries
exactly one packet copy, tagged with an NSH-style shim that ferries the
NFP metadata, and each link delivers its frames in the order sent.
"""

from .nsh import NSH_LEN, NshTag, decapsulate, encapsulate, has_nsh
from .latency import estimate_placed_latency, link_cost_us
from .timed import TimedMultiServer

__all__ = [
    "NshTag",
    "encapsulate",
    "decapsulate",
    "has_nsh",
    "NSH_LEN",
    "estimate_placed_latency",
    "link_cost_us",
    "TimedMultiServer",
]
