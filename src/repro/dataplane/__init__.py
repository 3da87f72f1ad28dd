"""NFP infrastructure (§5): classifier, runtimes, mergers, dataplanes.

Two executors share the same NF objects and merge code:

* :class:`FunctionalDataplane` -- untimed reference semantics, used for
  the §6.4 result-correctness verification;
* :class:`NFPServer` -- the timed DES dataplane with pinned cores,
  rings, and calibrated service times.
"""

from .chaining import ChainingManager
from .flowsplit import (
    assign_instances,
    key_digest,
    packet_key,
    pick_instance,
)
from .functional import (
    FunctionalDataplane,
    SequentialBank,
    SequentialReference,
    instantiate_nfs,
)
from .merging import MergeError, apply_merge_ops
from .runtimes import FlightState
from .server import NFPServer

__all__ = [
    "ChainingManager",
    "assign_instances",
    "key_digest",
    "packet_key",
    "pick_instance",
    "FunctionalDataplane",
    "SequentialBank",
    "SequentialReference",
    "instantiate_nfs",
    "apply_merge_ops",
    "MergeError",
    "NFPServer",
    "FlightState",
]
