"""Calibrated timing model for the simulated NFV testbed.

The paper's numbers come from a physical testbed (dual Xeon E5-2690 v2 @
3.00 GHz, 10G NICs, DPDK 16.11, Docker containers pinned to cores).  This
module centralises every constant of the simulation's stand-in timing
model.  Constants were calibrated so that the *reference points the paper
states explicitly* come out right; everything else is emergent from the
queueing model:

==============================  ======================  ==================
Reference point                 Paper value             Model anchor
==============================  ======================  ==================
OpenNetVM manager capacity      9.38 Mpps (Table 4)     ``ONVM_MANAGER_US``
NFP classifier w/ metadata      10.90-10.92 Mpps (T4)   ``CLASSIFIER_TAG_US``
Merger instance capacity        10.7 Mpps, d=2 (§6.3.3) ``MERGER_BASE_US``
10G line rate @64B              14.7-14.88 Mpps         ``NIC_RATE_GBPS``
1-NF firewall chain latency     ~25 us (Table 4)        IO + per-hop costs
BESS RTC chain latency          ~11.3 us (Table 4)      IO + burst residency
Copy+merge latency penalty      ~15 us (§6.3.2)         merge queueing
==============================  ======================  ==================

All times are microseconds (us); rates derive as ``1 / service_time``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

__all__ = ["SimParams", "DEFAULT_PARAMS", "nic_line_rate_mpps"]

#: CPU frequency of the paper's testbed, used to convert the "busy loop
#: cycles" knob of Fig. 9 into service time.
CPU_FREQ_MHZ = 3000.0


def nic_line_rate_mpps(packet_size: int, nic_gbps: float = 10.0) -> float:
    """Line rate in Mpps for a given wire packet size on an ``nic_gbps`` NIC.

    Adds the 20-byte Ethernet overhead (preamble 8 B + IFG 12 B) per frame,
    so a 64 B frame on 10 GbE gives the classic 14.88 Mpps.
    """
    if packet_size <= 0:
        raise ValueError("packet size must be positive")
    bits_per_packet = (packet_size + 20) * 8
    return nic_gbps * 1000.0 / bits_per_packet


@dataclass
class SimParams:
    """Every tunable of the simulated dataplane, with calibrated defaults."""

    # ------------------------------------------------------------------ IO
    #: One-way NIC+DPDK driver cost (rx or tx), per packet.
    nic_io_us: float = 4.0
    #: NIC speed in Gbit/s (the paper's servers have 10G NICs).
    nic_gbps: float = 10.0

    # ------------------------------------------------------- NFP dataplane
    #: Classifier service time for a *sequential* chain entry (no metadata
    #: needed: trivial CT hit, forward the reference).
    classifier_fwd_us: float = 0.060
    #: Classifier service time when the graph needs MID/PID/version
    #: metadata tagging (any graph with parallelism).  1/0.0915 = 10.93
    #: Mpps, the NFP plateau in Table 4.
    classifier_tag_us: float = 0.0875
    #: Core cost of the distributed NF runtime writing a packet
    #: reference into a peer's receive ring (zero-copy, §5.2) -- a
    #: pointer enqueue, a few nanoseconds.
    ring_hop_us: float = 0.002
    #: Fixed NF-runtime overhead per packet (poll, metadata lookup).
    nf_runtime_us: float = 0.030
    #: Merger core service per *output* packet (AT completion + MOs):
    #: one merger instance at 10.7 Mpps for parallelism degree 2
    #: (§6.3.3).
    merger_base_us: float = 0.0935
    #: Latency of delivering a merger notification (tiny reference
    #: messages on a tight poll loop -- cheaper than a full NF hop).
    merger_hop_latency_us: float = 2.0
    #: Latency cost of a merge rendezvous (AT bookkeeping + MO execution),
    #: charged once per output packet on the latency path.
    merge_latency_us: float = 1.9
    #: Rendezvous latency per notification collected (the merger "has to
    #: collect and merge more packets, which increases latency", §6.2.3).
    merge_per_notification_us: float = 1.2
    #: Extra rendezvous latency per *copy* version collected: calibrated
    #: against §6.3.2's "packet copying and merging could bring an
    #: average of 15 us latency penalty" at parallelism degree 2.
    copy_merge_latency_us: float = 8.0

    # ---------------------------------------------------------- packet copy
    #: Fixed cost of grabbing a pre-provisioned copy buffer (§5.2 notes
    #: buffers are pre-allocated, so this is an rte_memcpy setup cost).
    copy_base_us: float = 0.008
    #: Per-byte cost of the DPDK optimised memcpy (~0.2 ns/B).
    copy_per_byte_us: float = 0.0002

    # ------------------------------------------------------------ OpenNetVM
    #: Per-packet service of the centralized OpenNetVM manager/switch core;
    #: 1/0.1066 = 9.38 Mpps (Table 4).
    onvm_manager_us: float = 0.1066
    #: Extra latency of one traversal through the centralized switch, on
    #: top of the common per-stage pipeline latency.
    onvm_switch_hop_us: float = 1.0
    #: Manager-core cost of each *additional* switch traversal beyond the
    #: first (the first carries the full 0.1066 us manager service); this
    #: is what bends the Fig. 7(b) OpenNetVM lines down as chains grow.
    onvm_hop_op_us: float = 0.002

    # ------------------------------------------------------------- batching
    #: DPDK poll-mode burst size.
    batch_size: int = 32
    #: Per-NF-stage pipeline latency: batch fill/flush residency plus
    #: container ring scheduling.  This is the dominant per-hop term in
    #: the paper's measurements (their per-NF latency contribution is
    #: tens of microseconds even for trivial NFs).
    batch_wait_us: float = 14.0

    # ---------------------------------------------------------------- rings
    ring_capacity: int = 1024
    #: Bounded queue-full policy for in-pipeline deliveries: how many
    #: times a producer re-checks a full target ring before giving up
    #: and dropping.  0 (the calibrated default) preserves the paper's
    #: fail-fast ``rte_ring`` semantics; fault-tolerant runs raise it.
    ring_retry_limit: int = 0
    #: Backoff between ring-full retries.
    ring_retry_backoff_us: float = 5.0

    # ------------------------------------------------------ fault tolerance
    #: Merger Accumulating Table entry timeout: an entry older than this
    #: is reclaimed -- missing branches are treated as nil and whatever
    #: arrived is merged (when version 1 and every merge source made it)
    #: or accounted as an ``at_timeout`` drop.  <= 0 disables the
    #: sweeper (entries can then strand forever, the paper's implicit
    #: behaviour).  Also paces the server's flight-state sweeper, which
    #: reclaims per-packet state at twice this age when a fault injector
    #: is attached.
    at_timeout_us: float = 50_000.0

    # ------------------------------------------------- measurement settings
    #: Default load at which latency is reported, as a fraction of the
    #: max lossless rate.  At this load per-stage latency is dominated by
    #: burst/batch drain (32-packet DPDK bursts), which is the regime
    #: that reproduces the paper's Fig. 8/9/11/12 reduction percentages;
    #: the Table 4 benchmark overrides this with 0.9 (near saturation).
    latency_load_fraction: float = 0.55

    #: Per-NF service times at 64 B packets, microseconds/packet.  These
    #: model the six prototype NFs of §6.1 (plus extras from Table 2) and
    #: were chosen to land the Fig. 8 ordering: Forwarder < LB < Monitor <
    #: Firewall < VPN < IDS, with VPN/IDS an order of magnitude costlier.
    nf_service_us: Dict[str, float] = field(default_factory=lambda: {
        "forwarder": 0.035,
        "loadbalancer": 0.045,
        "monitor": 0.050,
        "firewall": 0.058,
        "conntrack-firewall": 0.075,
        "nat": 0.055,
        "caching": 0.080,
        "gateway": 0.042,
        "proxy": 0.100,
        "compression": 0.400,
        "shaper": 0.030,
        "vpn": 0.650,
        "ids": 0.700,
        "nids": 0.700,
        "ips": 0.720,
        "vpn-decrypt": 0.650,
        # L2/tunnel NFs: header-only work, between forwarder and LB;
        # dedup hashes the payload, so it sits near caching.
        "macswap": 0.036,
        "vlan-push": 0.038,
        "vlan-pop": 0.038,
        "vxlan-encap": 0.095,
        "vxlan-decap": 0.085,
        "dedup": 0.090,
    })

    def nf_service(self, kind: str, extra_cycles: int = 0) -> float:
        """Service time for an NF kind, plus an optional busy-loop (Fig 9)."""
        base = self.nf_service_us.get(kind.lower())
        if base is None:
            raise KeyError(f"no calibrated service time for NF kind {kind!r}")
        return base + extra_cycles / CPU_FREQ_MHZ

    def copy_cost_us(self, num_bytes: int) -> float:
        """Cost of copying ``num_bytes`` (header-only copies are 64 B)."""
        if num_bytes < 0:
            raise ValueError("cannot copy a negative number of bytes")
        return self.copy_base_us + num_bytes * self.copy_per_byte_us

    def merge_delay_us(self, num_versions: int, total_count: int) -> float:
        """Rendezvous latency of one merged packet: AT bookkeeping, the
        copy-collection penalty per extra version (§6.3.2) and the cost
        of each notification collected.  Pipeline latency, not core
        time."""
        return (self.merge_latency_us
                + (num_versions - 1) * self.copy_merge_latency_us
                + total_count * self.merge_per_notification_us)

    def line_rate_mpps(self, packet_size: int) -> float:
        return nic_line_rate_mpps(packet_size, self.nic_gbps)

    def with_overrides(self, **kwargs) -> "SimParams":
        """A copy of these parameters with selected fields replaced."""
        return replace(self, **kwargs)


#: The calibrated default parameter set used by all benchmarks
#: (Linux containers, as the paper's prototype).
DEFAULT_PARAMS = SimParams()

#: A VM-based deployment (§7: "NFP can also be implemented on VMs"):
#: containers "are more light-weight and can provide ... higher
#: performance", so the VM variant pays more per hop and per packet
#: (vhost/virtio crossings instead of shared-memory rings).
VM_PARAMS = SimParams().with_overrides(
    nf_runtime_us=0.120,
    batch_wait_us=22.0,
    classifier_tag_us=0.120,
    merger_base_us=0.131,
    nic_io_us=6.0,
)
