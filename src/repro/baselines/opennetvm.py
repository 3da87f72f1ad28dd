"""OpenNetVM baseline: sequential chains through a centralized switch.

Models the comparison system of §6 (OpenNetVM, the container port of
NetVM): NFs on pinned cores exchange packets through a *centralized*
manager/switch core.  The manager receives from the NIC (its per-packet
service bounds throughput at 9.38 Mpps, Table 4) and every inter-NF hop
traverses it again (a cheap enqueue op, but one that queues behind the
manager's backlog -- the paper's "packet queuing in this centralized
switch would compromise the performance").
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..net.packet import Packet
from ..nfs.base import NetworkFunction, create_nf
from ..sim import Core, Environment, Nic, Ring, SimParams
from ..sim.stats import LatencyStats, RateMeter

__all__ = ["OpenNetVMServer"]


class _OnvmNF:
    """An NF on its own core; returns packets to the manager afterwards."""

    def __init__(self, server: "OpenNetVMServer", nf: NetworkFunction, index: int):
        self.server = server
        self.nf = nf
        self.index = index
        self.core = Core(server.env, name=f"onvm-nf{index}")
        self.rx = Ring(server.env, server.params.ring_capacity, name=f"{nf.name}.rx")
        self.rx.wait(self._wake)

    def _wake(self, first: Packet) -> None:
        """Serve a burst on the core's own clock; forward it at its end."""
        params = self.server.params
        batch = [first] + self.rx.get_batch(params.batch_size - 1)
        service = params.nf_runtime_us + params.nf_service(
            self.nf.KIND, self.nf.extra_cycles
        )
        now = self.server.env.now
        for _ in batch:
            now = self.core.reserve(now, service)
        self.server.env.call_at(now, self._forward, batch)

    def _forward(self, batch: List[Packet]) -> None:
        for pkt in batch:
            ctx = self.nf.handle(pkt)
            if ctx.dropped:
                self.server.nil_dropped += 1
                continue
            self.server.to_manager(pkt, self.index + 1)
        self.rx.wait(self._wake)


class OpenNetVMServer:
    """A sequential service chain under the OpenNetVM architecture."""

    def __init__(
        self,
        env: Environment,
        params: SimParams,
        chain: Sequence[str],
        nf_instances: Optional[List[NetworkFunction]] = None,
        extra_cycles: int = 0,
    ):
        if not chain:
            raise ValueError("chain must name at least one NF")
        self.env = env
        self.params = params
        self.manager_core = Core(env, name="onvm-manager")
        self.manager_ring = Ring(env, params.ring_capacity, name="manager.rx")
        self.nic_tx = Nic(env, params, name="tx")

        if nf_instances is None:
            nfs = [create_nf(kind, name=f"{kind}{i}") for i, kind in enumerate(chain)]
        else:
            nfs = list(nf_instances)
        if len(nfs) != len(chain):
            raise ValueError("nf_instances must match the chain length")
        for nf in nfs:
            nf.extra_cycles = max(nf.extra_cycles, extra_cycles)
        self.nfs = [_OnvmNF(self, nf, i) for i, nf in enumerate(nfs)]

        self.latency = LatencyStats()
        self.rate = RateMeter()
        self.lost = 0
        self.nil_dropped = 0
        self.emitted_packets: List[Packet] = []
        self.keep_packets = False
        self.manager_ring.wait(self._manager_wake)

    @property
    def cores_used(self) -> int:
        """NF cores + the manager (the paper's n+1; +1 NIC-side core in
        Table 4's accounting comes from the generator)."""
        return len(self.nfs) + 1

    # ------------------------------------------------------------ dataplane
    def inject(self, pkt: Packet) -> None:
        if pkt.ingress_us < 0.0:
            pkt.ingress_us = self.env.now
        self.env.call_later(self.params.nic_io_us, self._put,
                            self.manager_ring, (pkt, 0, True))

    def to_manager(self, pkt: Packet, next_index: int) -> None:
        self.env.call_later(self.params.batch_wait_us, self._put,
                            self.manager_ring, (pkt, next_index, False))

    def _put(self, ring: Ring, item) -> None:
        if not ring.try_put(item):
            self.lost += 1

    def _manager_wake(self, first) -> None:
        params = self.params
        batch = [first] + self.manager_ring.get_batch(params.batch_size - 1)
        now = self.env.now
        for _pkt, _next_index, fresh in batch:
            now = self.manager_core.reserve(
                now, params.onvm_manager_us if fresh else params.onvm_hop_op_us)
        self.env.call_at(now, self._switch, batch)

    def _switch(self, batch) -> None:
        for pkt, next_index, _fresh in batch:
            if next_index >= len(self.nfs):
                self._emit(pkt)
                continue
            self._deliver(self.nfs[next_index].rx, pkt)
        self.manager_ring.wait(self._manager_wake)

    def _deliver(self, ring: Ring, pkt: Packet) -> None:
        self.env.call_later(self.params.onvm_switch_hop_us, self._put,
                            ring, pkt)

    def _emit(self, pkt: Packet) -> None:
        self.env.call_later(self.params.nic_io_us, self._tx_wire, pkt)

    def _tx_wire(self, pkt: Packet) -> None:
        self.env.call_at(self.nic_tx.transmit(pkt.wire_len), self._tx_done, pkt)

    def _tx_done(self, pkt: Packet) -> None:
        self.latency.record(self.env.now - pkt.ingress_us)
        self.rate.record_delivery(self.env.now)
        if self.keep_packets:
            self.emitted_packets.append(pkt)
