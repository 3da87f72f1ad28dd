"""Shared-memory packet pool, the analogue of a DPDK huge-page mempool.

The paper stores packets, rings and tables in a shared memory region on
huge pages (§5); NFs exchange 8-byte *references*.  Copies made for
parallelism come from pre-provisioned buffers ("we prepare memory blocks
to store input or copied packets during the system initialization", §5.2)
so copying never allocates dynamically.

:class:`PacketPool` models that region: a bounded number of fixed-size
buffer slots with alloc/free accounting.  The evaluation harness reads
``bytes_in_use`` / ``peak_copy_bytes`` to reproduce the §6.3.1 resource
overhead results (ro = 64·(d−1)/s).
"""

from __future__ import annotations

__all__ = ["PacketPool", "PoolExhaustedError"]


class PoolExhaustedError(Exception):
    """Raised when the pool has no free buffer slot."""


#: Bytes per buffer slot: the common mbuf data-room size.
SLOT_BYTES = 2048


class PacketPool:
    """Accounting model of a huge-page packet-buffer pool of
    :data:`SLOT_BYTES`-byte slots.

    Parameters
    ----------
    capacity:
        Number of buffer slots (DPDK mempools default to thousands).
    """

    def __init__(self, capacity: int = 8192):
        if capacity <= 0:
            raise ValueError("pool capacity must be positive")
        self.capacity = capacity
        self.in_use = 0
        self.peak_in_use = 0
        # Byte-level accounting distinguishes original packet bytes from
        # bytes consumed by parallelism-induced copies.
        self.original_bytes = 0
        self.copy_bytes = 0
        self.cumulative_original_bytes = 0
        self.cumulative_copy_bytes = 0
        self.allocations = 0
        self.copy_allocations = 0

    def alloc(self, nbytes: int, is_copy: bool = False) -> None:
        """Claim one slot holding ``nbytes`` of packet data."""
        if nbytes < 0:
            raise ValueError("negative allocation size")
        if nbytes > SLOT_BYTES:
            raise ValueError(
                f"packet of {nbytes} B exceeds slot size {SLOT_BYTES} B"
            )
        if self.in_use >= self.capacity:
            raise PoolExhaustedError(
                f"pool exhausted ({self.capacity} slots in use)"
            )
        self.in_use += 1
        self.peak_in_use = max(self.peak_in_use, self.in_use)
        self.allocations += 1
        if is_copy:
            self.copy_bytes += nbytes
            self.cumulative_copy_bytes += nbytes
            self.copy_allocations += 1
        else:
            self.original_bytes += nbytes
            self.cumulative_original_bytes += nbytes

    def free(self, nbytes: int, is_copy: bool = False) -> None:
        """Return one slot to the pool."""
        if self.in_use <= 0:
            raise ValueError("free() without a matching alloc()")
        self.in_use -= 1
        if is_copy:
            self.copy_bytes -= nbytes
        else:
            self.original_bytes -= nbytes

    @property
    def bytes_in_use(self) -> int:
        return self.original_bytes + self.copy_bytes

    def copy_overhead_fraction(self) -> float:
        """Extra memory consumed by copies, relative to original traffic.

        This is the quantity the paper's §6.3.1 equation
        ``ro = 64 × (d − 1) / s`` describes; with header-only copying the
        numerator counts only 64-byte header copies.
        """
        if self.cumulative_original_bytes == 0:
            return 0.0
        return self.cumulative_copy_bytes / self.cumulative_original_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PacketPool {self.in_use}/{self.capacity} slots, "
            f"{self.bytes_in_use} B in use>"
        )
