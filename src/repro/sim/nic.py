"""NIC model: a rate-limited serial link feeding/draining the dataplane.

The testbed uses two 10G NICs per server.  On the wire each frame takes
``(size + 20) * 8 / speed`` seconds (preamble + inter-frame gap included),
which caps 64 B traffic at the classic 14.88 Mpps -- the "Line Speed"
series in Fig. 7(b).  The :class:`Nic` serialises transmissions at that
rate and charges the fixed DPDK driver cost per packet.
"""

from __future__ import annotations

from typing import Any, List

from .cpu import Core
from .engine import Environment
from .params import SimParams
from .stats import LatencyStats, RateMeter

__all__ = ["Nic", "NicEgress"]


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


class NicEgress:
    """The tx port and measurement sinks every timed server shares.

    A finished packet claims the wire (:meth:`_tx_wire`) and is recorded
    when its last bit leaves (:meth:`_tx_done`); a delivery into a full
    ring (:meth:`_put`) counts as lost.
    """

    def __init__(self, env: Environment, params: SimParams):
        self.env = env
        self.params = params
        self.nic_tx = Nic(env, params, name="tx")
        self.latency = LatencyStats()
        self.rate = RateMeter()
        self.lost = 0
        self.nil_dropped = 0
        self.emitted_packets: List[Any] = []
        self.keep_packets = False

    def _put(self, ring, item: Any) -> None:
        if not ring.try_put(item):
            self.lost += 1

    def _tx_wire(self, pkt) -> None:
        self.env.call_at(self.nic_tx.transmit(pkt.wire_len), self._tx_done, pkt)

    def _tx_done(self, pkt) -> None:
        self.latency.record(self.env.now - pkt.ingress_us)
        self.rate.record_delivery(self.env.now)
        if self.keep_packets:
            self.emitted_packets.append(pkt)
