"""Bounded ring buffers, the simulated analogue of DPDK ``rte_ring``.

In the paper each NF owns a *receive* and a *transmit* ring allocated in
huge-page shared memory; packet delivery writes a packet **reference**
into the target NF's receive ring (§5, "zero-copy delivery").  Here a
:class:`Ring` is a bounded FIFO of arbitrary Python objects living inside
the DES.  Capacity is enforced: ``try_put`` fails when the ring is full,
which is how the simulation models packet loss under overload (and hence
how the "maximum throughput without packet loss" measurements work).

A ring has one consumer, a state machine rather than a process:

* ``wait(callback)`` -- call ``callback(item)`` with the next item, one
  zero-delay scheduled call after it is available;
* ``burst(first, n)`` -- that item plus up to ``n - 1`` more drained
  immediately, which is how the callback completes its DPDK-style burst.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from .engine import Environment

__all__ = ["Ring"]


class Ring:
    """A bounded FIFO queue of packet references.

    Parameters
    ----------
    env:
        The simulation environment.
    capacity:
        Maximum number of outstanding items.  DPDK rings are powers of
        two; we default to 1024 like the common ``RTE_RING`` sizing.
    name:
        Diagnostic label (e.g. ``"fw0.rx"``).
    """

    def __init__(self, env: Environment, capacity: int = 1024, name: str = ""):
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        #: The parked consumer's callback, and the instant its previous
        #: burst ends: it takes nothing directly before that.
        self._consumer: Optional[Callable[[Any], None]] = None
        self._free_at = 0.0
        # Statistics -- consumed by the evaluation harness.
        self.enqueued = 0
        self.dropped = 0
        self.high_watermark = 0
        #: Overflow hook: called with the rejected item whenever
        #: ``try_put`` drops on a full ring, so owners (the NFP server)
        #: can surface the loss -- telemetry, drop accounting, merger
        #: notification -- instead of the item silently vanishing into
        #: the local ``dropped`` counter.
        self.on_drop: Optional[Callable[[Any], None]] = None
        #: Whoever drains this ring, for a producer that needs to ask (the
        #: NFP server checks its NF runtime's health as a reference lands).
        self.owner: Any = None

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Ring {self.name or id(self)} {len(self)}/{self.capacity}>"

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    # -- producer side ------------------------------------------------------
    def try_put(self, item: Any) -> bool:
        """Enqueue ``item``; return ``False`` (and count a drop) if full.

        An accepted item goes straight to a parked consumer that is
        free; otherwise it is buffered.
        """
        items = self._items
        depth = len(items)
        if depth >= self.capacity:
            self.dropped += 1
            if self.on_drop is not None:
                self.on_drop(item)
            return False
        self.enqueued += 1
        consumer = self._consumer
        if consumer is not None:
            self._consumer = None
            env = self.env
            if env.now >= self._free_at:
                env.call_later(0.0, consumer, item)
                return True
            # Still inside its previous burst: the item queues, and the
            # consumer comes for it -- and whatever follows -- when free.
            env.call_at(self._free_at, self.wait, consumer)
        items.append(item)
        if depth >= self.high_watermark:
            self.high_watermark = depth + 1
        return True

    # -- consumer side ------------------------------------------------------
    def wait(self, callback: Callable[[Any], None],
             not_before: float = 0.0) -> None:
        """Park the ring's one consumer: ``callback(item)`` gets the next item.

        The item leaves the ring when it is available -- now, if one is
        buffered -- and ``callback`` runs one zero-delay scheduled call
        later, so deliveries due at the same instant still land in the
        burst the callback drains with :meth:`burst`.  ``not_before``
        is the instant the consumer's previous burst ends when that lies
        ahead of the clock: until then items only queue, and one that
        arrives exactly then joins the queue behind them.
        """
        if self._items:
            if not_before > self.env.now:
                self.env.call_at(not_before, self.wait, callback)
            else:
                self.env.call_later(0.0, callback, self._items.popleft())
        else:
            self._consumer = callback
            self._free_at = not_before

    def cancel_wait(self) -> None:
        """Forget the parked consumer (its instance was retired)."""
        self._consumer = None

    def get_batch(self, max_items: int) -> List[Any]:
        """Immediately dequeue up to ``max_items`` items (may be empty).

        Models a poll-mode driver burst read (``rte_ring_dequeue_burst``).
        """
        if max_items <= 0:
            raise ValueError("batch size must be positive")
        batch: List[Any] = []
        while self._items and len(batch) < max_items:
            batch.append(self._items.popleft())
        return batch

    def burst(self, first: Any, size: int) -> List[Any]:
        """``first`` (the item :meth:`wait` handed over) plus up to
        ``size - 1`` more dequeued now: one burst of at most ``size``.

        A ring holding less than a burst's worth is taken whole; a
        fuller one drains ``size - 1`` items in one comprehension.
        """
        items = self._items
        if not items:
            return [first]
        if len(items) < size:
            batch = [first, *items]
            items.clear()
            return batch
        popleft = items.popleft
        return [first, *[popleft() for _ in range(size - 1)]]

    def peek(self) -> Optional[Any]:
        """The next item without removing it, or ``None`` if empty."""
        return self._items[0] if self._items else None
