"""NIC model: a rate-limited serial link feeding/draining the dataplane.

The testbed uses two 10G NICs per server.  On the wire each frame takes
``(size + 20) * 8 / speed`` seconds (preamble + inter-frame gap included),
which caps 64 B traffic at the classic 14.88 Mpps -- the "Line Speed"
series in Fig. 7(b).  The :class:`Nic` serialises transmissions at that
rate and charges the fixed DPDK driver cost per packet.
"""

from __future__ import annotations

from .cpu import Core
from .engine import Environment
from .params import SimParams

__all__ = ["Nic"]


class Nic:
    """A simplex NIC port with wire-rate serialisation."""

    def __init__(self, env: Environment, params: SimParams, name: str = "nic"):
        self.env = env
        self.params = params
        self.name = name
        #: The wire is one more serial server: frames queue on it.
        self._wire = Core(env, name=f"{name}.wire")
        self.tx_packets = 0

    def wire_time_us(self, packet_size: int) -> float:
        """Serialisation delay of one frame of ``packet_size`` bytes."""
        if packet_size <= 0:
            raise ValueError("packet size must be positive")
        bits = (packet_size + 20) * 8
        # Gbit/s == bits per nanosecond; convert to microseconds.
        return bits / (self.params.nic_gbps * 1000.0)

    def transmit(self, packet_size: int) -> float:
        """Occupy the wire for one frame, queued behind the frames before
        it; returns the instant it is fully serialised (for ``call_at``)."""
        self.tx_packets += 1
        return self._wire.reserve(self.env.now, self.wire_time_us(packet_size))

    def line_rate_mpps(self, packet_size: int) -> float:
        return 1.0 / self.wire_time_us(packet_size)
