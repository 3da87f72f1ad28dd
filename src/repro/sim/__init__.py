"""Discrete-event simulation substrate (the stand-in for DPDK + testbed).

Public surface:

- :class:`~repro.sim.engine.Environment` -- event loop / virtual clock.
- :class:`~repro.sim.ring.Ring` -- bounded rings (``rte_ring`` analogue).
- :class:`~repro.sim.cpu.Core` -- pinned-core single-server queue.
- :class:`~repro.sim.memory.PacketPool` -- huge-page mempool accounting.
- :class:`~repro.sim.nic.Nic` -- wire-rate serialisation model;
  :class:`~repro.sim.nic.NicEgress` -- the tx port every timed server shares.
- :class:`~repro.sim.params.SimParams` -- the calibrated timing constants.
- :mod:`~repro.sim.stats` -- latency / rate collectors.
"""

from .engine import Environment, SimulationError
from .ring import Ring, RingFullError
from .cpu import Core
from .memory import PacketPool, PoolExhaustedError
from .nic import Nic, NicEgress
from .params import DEFAULT_PARAMS, VM_PARAMS, SimParams, nic_line_rate_mpps
from .stats import LatencyStats, LatencySummary, RateMeter, percentile, summarize

__all__ = [
    "Environment",
    "SimulationError",
    "Ring",
    "RingFullError",
    "Core",
    "PacketPool",
    "PoolExhaustedError",
    "Nic",
    "NicEgress",
    "SimParams",
    "DEFAULT_PARAMS",
    "VM_PARAMS",
    "nic_line_rate_mpps",
    "LatencyStats",
    "LatencySummary",
    "RateMeter",
    "percentile",
    "summarize",
]
