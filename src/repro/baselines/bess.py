"""BESS baseline: run-to-completion service chains (§7, Table 4).

"The RTC model consolidates an entire service chain as a native process
on a CPU core" -- no rings between NFs, no per-hop cost.  Given k cores,
BESS "duplicate[s] k entire chains to place on the k cores, and
perform[s] hashing in the NIC to split traffic across cores" (RSS).
Throughput scales with cores until the NIC line rate caps it; latency is
the NIC round trip plus one consolidated service time.
"""

from __future__ import annotations

import zlib
from typing import List, Sequence

from ..net.packet import Packet
from ..nfs.base import NetworkFunction, create_nf
from ..sim import Core, Environment, NicEgress, Ring, SimParams

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
        service = params.rtc_base_us + sum(
            params.rtc_per_nf_us + nf.extra_cycles / 3000.0 for nf in self.nfs
        )
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
        # NIC RSS: hash the 5-tuple to a core.
        target = self.cores[
            zlib.crc32(pkt.flow_bytes()) % len(self.cores)
        ]
        self.env.call_later(self.params.nic_io_us, self._put, target.rx, pkt)

    def emit(self, pkt: Packet, now: float) -> None:
        self.env.call_at(now + self.params.nic_io_us, self._tx_wire, pkt)
