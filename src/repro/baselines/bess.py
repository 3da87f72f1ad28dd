"""BESS baseline: run-to-completion service chains (§7, Table 4).

"The RTC model consolidates an entire service chain as a native process
on a CPU core" -- no rings between NFs, no per-hop cost.  Given k cores,
BESS "duplicate[s] k entire chains to place on the k cores, and
perform[s] hashing in the NIC to split traffic across cores" (RSS).
Throughput scales with cores until the NIC line rate caps it; latency is
the NIC round trip plus one consolidated service time.

The consolidated service time is only Fig. 9's busy loop: the model
prices an NF's own work as free under RTC, so without the busy loop any
chain -- ``vpn`` or ``ids`` included -- runs at line rate, where NFP
pays ``SimParams.nf_service`` for the same NFs.  Charged that way,
Table 4's firewall chains would gain at most 0.17 us and stay at line
rate on their n + 2 cores; ``bess_west_east``'s latency leaves out about
0.8 us of IDS, monitor and load-balancer work.
"""

from __future__ import annotations

from typing import List, Sequence

from ..dataplane.flowsplit import key_digest, packet_key
from ..net.packet import Packet
from ..nfs.base import NetworkFunction, create_nf
from ..sim import Core, Environment, NicEgress, Ring, SimParams
from ..sim.params import CPU_FREQ_MHZ

__all__ = ["BessServer"]


class _RtcCore:
    """One core running a full duplicated chain run-to-completion."""

    def __init__(self, server: "BessServer", index: int, nfs: List[NetworkFunction]):
        self.server = server
        self.index = index
        self.nfs = nfs
        self.core = Core(server.env, name=f"rtc{index}")
        self.rx = Ring(server.env, server.params.ring_capacity, name=f"rtc{index}.rx")
        self.rx.wait(self._wake)

    def _wake(self, first: Packet) -> None:
        """Run a burst to completion in one call, each packet leaving at
        its own instant on the core's clock."""
        params = self.server.params
        batch = self.rx.burst(first, params.batch_size)
        service = sum(nf.extra_cycles for nf in self.nfs) / CPU_FREQ_MHZ
        now = self.server.env.now
        for pkt in batch:
            now = self.core.reserve(now, service)
            if any(nf.handle(pkt).dropped for nf in self.nfs):
                self.server.nil_dropped += 1
            else:
                self.server.emit(pkt, now)
        self.rx.wait(self._wake, now)


class BessServer(NicEgress):
    """RTC chains duplicated over ``num_cores`` with NIC RSS hashing."""

    def __init__(
        self,
        env: Environment,
        params: SimParams,
        chain: Sequence[str],
        num_cores: int = 1,
        extra_cycles: int = 0,
    ):
        if not chain:
            raise ValueError("chain must name at least one NF")
        if num_cores <= 0:
            raise ValueError("need at least one core")
        super().__init__(env, params)
        self.cores: List[_RtcCore] = []
        for index in range(num_cores):
            nfs = [
                create_nf(kind, name=f"rtc{index}-{kind}{i}")
                for i, kind in enumerate(chain)
            ]
            for nf in nfs:
                nf.extra_cycles = max(nf.extra_cycles, extra_cycles)
            self.cores.append(_RtcCore(self, index, nfs))

    @property
    def cores_used(self) -> int:
        return len(self.cores)

    def inject(self, pkt: Packet) -> None:
        if pkt.ingress_us < 0.0:
            pkt.ingress_us = self.env.now
        # NIC RSS: hash the flow key to a core (a keyless frame: core 0).
        target = self.cores[key_digest(packet_key(pkt)) % len(self.cores)]
        self.env.call_later(self.params.nic_io_us, self._put, target.rx, pkt)

    def emit(self, pkt: Packet, now: float) -> None:
        self.env.call_at(now + self.params.nic_io_us, self._tx_wire, pkt)
