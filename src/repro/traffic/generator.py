"""Traffic generation: packet sizes, flows, and open-loop sources.

Stands in for the paper's DPDK packet generator ("runs on a separate
server and is directly connected to the test server", §6).  Three
pieces:

* :class:`PacketSizeDistribution` -- including the data-center mix of
  Benson et al. (IMC'10) that the paper uses ("the average packet size
  in data centers is around 724 bytes", §4.2 / §6.4);
* :class:`FlowGenerator` -- deterministic, seeded packet factories over
  a set of synthetic flows;
* :class:`TrafficSource` -- a chain of scheduled DES calls injecting
  packets into a server at a configured rate, with deterministic or
  Poisson arrivals; :func:`feed_list` injects a fixed list at a fixed
  gap the same way.
"""

from __future__ import annotations

import bisect
import random
from struct import pack_into
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

if TYPE_CHECKING:  # pragma: no cover
    from .shapes import LoadShape

from ..net.checksum import internet_checksum
from ..net.headers import ETH_HEADER_LEN, Ipv4View, TcpView
from ..net.packet import Packet, build_packet
from ..sim.engine import Environment

__all__ = [
    "PacketSizeDistribution",
    "FIXED_64B",
    "DATACENTER_MIX",
    "FlowGenerator",
    "TrafficSource",
    "feed_list",
]

#: Minimum frame we generate: headers only (Eth+IP+TCP = 54) padded to 64.
MIN_FRAME = 64

#: The Eth+IPv4+TCP headers every generated frame starts with, and where
#: the three per-packet IPv4 words sit in them.
_HEADERS_LEN = ETH_HEADER_LEN + Ipv4View.HEADER_LEN + TcpView.HEADER_LEN
_TOTAL_LENGTH_AT = ETH_HEADER_LEN + 2  # identification is the next word
_CHECKSUM_AT = ETH_HEADER_LEN + 10


class PacketSizeDistribution:
    """A discrete distribution over frame sizes."""

    def __init__(self, points: Sequence[Tuple[int, float]], name: str = "custom"):
        if not points:
            raise ValueError("empty size distribution")
        total = sum(w for _, w in points)
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        for size, weight in points:
            if size < MIN_FRAME or size > 1500:
                raise ValueError(f"frame size out of range: {size}")
            if weight < 0:
                raise ValueError("negative weight")
        self.name = name
        self.points = [(size, weight / total) for size, weight in points]

    def mean(self) -> float:
        return sum(size * weight for size, weight in self.points)

    def sample(self, rng: random.Random) -> int:
        roll = rng.random()
        acc = 0.0
        for size, weight in self.points:
            acc += weight
            if roll <= acc:
                return size
        return self.points[-1][0]

    def __repr__(self) -> str:
        return f"PacketSizeDistribution({self.name}, mean={self.mean():.0f}B)"


#: Fixed minimum-size packets -- the paper's latency measurements.
FIXED_64B = PacketSizeDistribution([(64, 1.0)], name="64B")

#: The bimodal data-center mix of Benson et al., tuned so the mean frame
#: is ~724 B as the paper derives from [4].
DATACENTER_MIX = PacketSizeDistribution(
    [(64, 0.40), (200, 0.05), (576, 0.10), (1024, 0.05), (1450, 0.40)],
    name="datacenter",
)


class FlowGenerator:
    """Deterministic packet factory over ``num_flows`` synthetic flows.

    Flows are TCP with distinct (src ip, src port) pairs in 10/8; each
    call to :meth:`next_packet` picks a flow and samples a size.  The
    source address takes the low 24 bits of the flow index (one unique
    host per flow up to 16.7M) and the source port absorbs any higher
    bits, so 5-tuples never collide however many flows are asked for --
    the old 16-bit derivation silently merged distinct "users" past
    65,536 flows.

    ``popularity`` selects how packets distribute over flows:
    ``"uniform"`` round-robins (every flow equally hot), ``"zipf"``
    draws flows from a Zipf(``zipf_s``) law -- a few elephant flows
    carry most packets while a heavy tail of mice appears rarely, the
    shape real traffic mixes take.

    A flow is a *frame template*: everything :func:`build_packet` writes
    into the 54 header bytes is constant per flow except three IPv4
    words (total length, identification, checksum), so each flow keeps
    those 54 bytes and the header's checksum base with the three words
    zeroed, and a packet is one slice store, one ``pack_into`` and a
    checksum folded from the base.  Templates are built on a flow's
    first pick, so the memo holds at most ``num_flows`` entries -- the
    bound ``_flows`` already has.  :func:`build_packet` authors every
    template: the frame layout has one owner, and the property suite
    holds each generated frame to the one it would have built
    (``tests/support/flowgen_reference.py``).
    """

    def __init__(
        self,
        num_flows: int = 64,
        sizes: PacketSizeDistribution = FIXED_64B,
        seed: int = 42,
        payload_fn: Optional[Callable[[int], bytes]] = None,
        popularity: str = "uniform",
        zipf_s: float = 1.2,
    ):
        if num_flows <= 0:
            raise ValueError("need at least one flow")
        if popularity not in ("uniform", "zipf"):
            raise ValueError(f"unknown popularity {popularity!r}")
        if num_flows - 1 > 0xFFFFFF * (65535 - 10000):
            raise ValueError("num_flows exceeds the 5-tuple space")
        self.sizes = sizes
        self.popularity = popularity
        self._rng = random.Random(seed)
        self._payload_fn = payload_fn
        self._sequence = 0
        self._flows: List[Tuple[str, str, int, int]] = []
        #: Flow index -> (54 header bytes, checksum base), on first pick.
        self._templates: Dict[int, Tuple[bytes, int]] = {}
        for i in range(num_flows):
            host = i & 0xFFFFFF
            self._flows.append(
                (
                    f"10.{(host >> 16) & 255}.{(host >> 8) & 255}.{host & 255}",
                    f"10.200.{(i * 7) % 256}.{(i % 250) + 1}",
                    10000 + (i >> 24),
                    80 if i % 3 else 443,
                )
            )
        self._cum_weights: Optional[List[float]] = None
        if popularity == "zipf":
            acc = 0.0
            cum = []
            for rank in range(1, num_flows + 1):
                acc += 1.0 / (rank ** zipf_s)
                cum.append(acc)
            self._cum_weights = cum

    def _template(self, index: int) -> Tuple[bytes, int]:
        """Flow ``index``'s header bytes and checksum base, built once."""
        src_ip, dst_ip, src_port, dst_port = self._flows[index]
        frame = build_packet(src_ip=src_ip, dst_ip=dst_ip, src_port=src_port,
                             dst_port=dst_port, size=_HEADERS_LEN,
                             identification=0)
        ip = frame.ipv4
        ip.total_length = ip.checksum = 0  # the per-packet words, zeroed
        # The words' one's-complement sum, as ``internet_checksum`` folds it.
        base = 0xFFFF - internet_checksum(
            frame.buf[ETH_HEADER_LEN:ETH_HEADER_LEN + Ipv4View.HEADER_LEN])
        template = self._templates[index] = (bytes(frame.buf), base)
        return template

    def next_packet(self) -> Packet:
        cum = self._cum_weights
        if cum is None:
            index = self._sequence % len(self._flows)
        else:
            index = min(bisect.bisect_left(cum, self._rng.random() * cum[-1]),
                        len(self._flows) - 1)
        sequence = self._sequence = self._sequence + 1
        size = self.sizes.sample(self._rng)
        payload = self._payload_fn(sequence) if self._payload_fn else b""
        if size < _HEADERS_LEN:
            raise ValueError(
                f"requested size {size} smaller than headers ({_HEADERS_LEN} B)")
        if len(payload) > size - _HEADERS_LEN:
            raise ValueError("payload does not fit in requested size")
        header, base = self._templates.get(index) or self._template(index)
        buf = bytearray(size)
        buf[:_HEADERS_LEN] = header
        if payload:
            buf[_HEADERS_LEN:_HEADERS_LEN + len(payload)] = payload
        # The IPv4 identification is 16 bits and long runs wrap: only
        # repro.check cases key on it, and those build their own packets.
        total_length = size - ETH_HEADER_LEN
        identification = sequence & 0xFFFF
        pack_into("!HH", buf, _TOTAL_LENGTH_AT, total_length, identification)
        # ``internet_checksum``'s fold: the words never sum to zero (the
        # length is one), so a multiple of 0xFFFF is "negative zero".
        checksum = 0xFFFF - (
            (base + total_length + identification) % 0xFFFF or 0xFFFF)
        buf[_CHECKSUM_AT] = checksum >> 8
        buf[_CHECKSUM_AT + 1] = checksum & 0xFF
        return Packet(buf)

    def packets(self, count: int) -> List[Packet]:
        return [self.next_packet() for _ in range(count)]


#: Packets per source burst: DPDK pktgen transmits in bursts; packets
#: inside a burst arrive back to back and the inter-burst gap restores
#: the mean rate.
SOURCE_BURST = 32


class TrafficSource:
    """Open-loop packet source driving a simulated server.

    ``rate_mpps`` sets the mean arrival rate; ``poisson`` selects
    exponential inter-arrival times (needed for queueing-dominated
    latency measurements) versus a deterministic gap.

    ``shape`` (a :class:`~repro.traffic.shapes.LoadShape`) makes the
    offered rate time-varying: each inter-burst gap is derived from the
    shape's instantaneous rate at the current simulation time, so the
    source traces diurnal curves, flash crowds, or burst trains instead
    of a flat rate.  ``rate_mpps`` remains the nominal rate the shape
    modulates around (and the fallback when no shape is given).
    """

    def __init__(
        self,
        env: Environment,
        inject: Callable[[Packet], None],
        rate_mpps: float,
        count: int,
        flows: Optional[FlowGenerator] = None,
        poisson: bool = True,
        seed: int = 1,
        shape: Optional["LoadShape"] = None,
    ):
        if rate_mpps <= 0:
            raise ValueError("rate must be positive")
        if count <= 0:
            raise ValueError("count must be positive")
        self.env = env
        self.inject = inject
        self.gap_us = 1.0 / rate_mpps
        self.count = count
        self.flows = flows or FlowGenerator()
        self.poisson = poisson
        self.shape = shape
        self.offered = 0
        self._rng = random.Random(seed)
        self._remaining = count
        env.call_later(0.0, self._burst)

    def _gap_for_burst(self, burst: int) -> float:
        if self.shape is not None:
            rate = max(self.shape.rate_mpps(self.env.now), 1e-6)
            return burst / rate
        return self.gap_us * burst

    def _burst(self) -> None:
        """Inject one burst, then schedule the next a drawn gap later.

        The call after the last burst finds nothing left to send; its gap
        was still drawn, so the run's last instant and the random stream
        are what they would be for a longer source cut at ``count``.
        """
        remaining = self._remaining
        if remaining <= 0:
            return
        env = self.env
        burst = min(SOURCE_BURST, remaining)
        for _ in range(burst):
            pkt = self.flows.next_packet()
            pkt.ingress_us = env.now
            self.offered += 1
            self.inject(pkt)
        self._remaining = remaining - burst
        mean_gap = self._gap_for_burst(burst)
        gap = (
            self._rng.expovariate(1.0 / mean_gap)
            if self.poisson
            else mean_gap
        )
        env.call_later(gap, self._burst)


def feed_list(env: Environment, inject: Callable[[Any], None],
              items: Sequence[Any], gap_us: float) -> None:
    """Inject ``items`` in order, ``gap_us`` apart, from a zero-delay call.

    The fixed-stream counterpart of :class:`TrafficSource` (a fuzz case's
    packets, a test's frames): each call injects one item and schedules
    the next a gap later, and the call after the last item does nothing.
    """
    def step(index: int) -> None:
        if index < len(items):
            inject(items[index])
            env.call_later(gap_us, step, index + 1)

    env.call_later(0.0, step, 0)
