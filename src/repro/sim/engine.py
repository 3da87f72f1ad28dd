"""A minimal discrete-event simulation (DES) engine.

This module is the substrate that stands in for the paper's physical
testbed (DPDK, CPU cores, NIC queues).  The engine only orders calls by
absolute time: :meth:`Environment.call_later` / :meth:`Environment.call_at`
push one plain call onto the queue, and :meth:`Environment.run` pops them
in time order, ties in scheduling order.  Every component -- a ring hop,
a core's burst, the traffic source, the windowed sampler, a live rescale
-- schedules itself: a step that has to wait schedules the next one.

Time is a ``float`` in *microseconds* throughout the repository, matching
the unit the paper reports latencies in.

Example
-------
>>> env = Environment()
>>> log = []
>>> def tick(left):
...     log.append(env.now)
...     if left:
...         env.call_later(5.0, tick, left - 1)
>>> env.call_later(5.0, tick, 1)
>>> env.run()
>>> log
[5.0, 10.0]
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Any, Callable, List, Optional

__all__ = [
    "Environment",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for illegal uses of the simulation API."""


def _nothing() -> None:
    """The call :meth:`Environment.timeout` queues."""


class Environment:
    """The simulation clock and event queue.

    A queue entry is ``(when, eid, func, args)``; popping it sets the
    clock to ``when`` and calls ``func(*args)``.

    The queue is a binary heap; ties resolve by scheduling id.
    """

    def __init__(
        self,
        initial_time: float = 0.0,
        track_stats: bool = False,
        scheduler: str = "heap",
    ):
        # ``scheduler`` is kept, accepting its one remaining value, for
        # the performance lab, which this repo's PRs may not edit:
        # ``benchmarks/lab/workloads.py`` passes ``scheduler="heap"`` on
        # every ``*_des`` build and ``benchmarks/lab/child.py`` probes
        # ``"calendar"`` expecting :class:`SimulationError` once it is gone.
        # ROADMAP's lab-upkeep items (4)-(5) remove it.
        if scheduler != "heap":
            raise SimulationError(
                f"unknown scheduler {scheduler!r}; the event queue is a heap")
        #: Current simulation time in microseconds: a plain attribute
        #: that only the pop loop (:meth:`step` / :meth:`run`) writes, so
        #: a read is one attribute load, not a property call.
        self.now = float(initial_time)
        #: Entries queued so far; the latest one's tie-break id.
        self._eid = 0
        self.queue_high_watermark = 0
        self._queue: List[tuple] = []
        self._push: Callable[[tuple], None] = (
            self._push_tracked if track_stats
            else partial(heapq.heappush, self._queue))

    @property
    def events_processed(self) -> int:
        """Entries popped so far: every one queued that is no longer
        queued, so the pop loop carries no bookkeeping of its own."""
        return self._eid - len(self._queue)

    def call_later(self, delay: float, func: Callable[..., Any],
                   *args: Any) -> None:
        """Call ``func(*args)`` once, ``delay`` microseconds from now.

        One queue entry and nothing else, so there is nothing to return,
        join or cancel.  A component that waits schedules its next step
        here (or with :meth:`call_at`).  An exception ``func`` raises
        surfaces from :meth:`step` / :meth:`run`.
        """
        if delay < 0:
            raise SimulationError(f"negative call_later delay: {delay!r}")
        self._eid += 1
        self._push((self.now + delay, self._eid, func, args))

    def call_at(self, when: float, func: Callable[..., Any],
                *args: Any) -> None:
        """Call ``func(*args)`` once, at the absolute time ``when``.

        For a caller that computed an instant arithmetically (the end of
        a burst on a :class:`~repro.sim.cpu.Core`): ``now + (when - now)``
        need not be ``when`` in floating point, so the instant is taken
        as given.  Ties with anything else due at ``when`` resolve in
        scheduling order, as for :meth:`call_later`.
        """
        if when < self.now:
            raise SimulationError(
                f"call_at({when!r}) lies in the past (now={self.now!r})")
        self._eid += 1
        self._push((when, self._eid, func, args))

    def timeout(self, delay: float) -> None:
        """Queue one no-op entry ``delay`` microseconds from now.

        Kept only for the performance lab, which this repo's PRs may not
        edit: its bare-engine probe (``benchmarks/lab/layers.py:93``)
        times ``env.timeout`` through an empty environment.  ROADMAP's
        lab-upkeep items (4)-(5) restate that probe over
        :meth:`call_later` and remove this.
        """
        self.call_later(delay, _nothing)

    def _push_tracked(self, entry: tuple) -> None:
        """Push plus the queue-depth watermark (``track_stats=True``)."""
        heapq.heappush(self._queue, entry)
        if len(self._queue) > self.queue_high_watermark:
            self.queue_high_watermark = len(self._queue)

    def step(self) -> None:
        """Pop the single next queue entry and call it."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        self.now, _, func, args = heapq.heappop(self._queue)
        func(*args)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock passes ``until``."""
        if until is not None and until < self.now:
            raise SimulationError("run(until) lies in the past")
        queue, pop = self._queue, heapq.heappop
        while queue:
            if until is not None and queue[0][0] > until:
                break
            self.now, _, func, args = pop(queue)  # step(), inlined
            func(*args)
        if until is not None:
            self.now = until

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")
