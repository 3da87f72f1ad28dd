"""A minimal discrete-event simulation (DES) engine.

This module is the substrate that stands in for the paper's physical
testbed (DPDK, CPU cores, NIC queues).  It is a deliberately small,
dependency-free cousin of SimPy: simulation *processes* are Python
generators that ``yield`` events; the :class:`Environment` advances a
virtual clock and resumes processes when the events they wait on fire.
A delay with nothing to wait on afterwards -- a ring hop, a NIC leg, the
end of a burst whose instants were computed arithmetically -- is not a
process: :meth:`Environment.call_later` / :meth:`Environment.call_at`
push one plain call straight onto the queue, with no :class:`Event`.

Time is a ``float`` in *microseconds* throughout the repository, matching
the unit the paper reports latencies in.

Example
-------
>>> env = Environment()
>>> log = []
>>> def proc(env):
...     yield env.timeout(5.0)
...     log.append(env.now)
>>> _ = env.process(proc(env))
>>> env.run()
>>> log
[5.0]
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Any, Callable, Generator, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for illegal uses of the simulation API."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; :meth:`succeed` or :meth:`fail` triggers it,
    which schedules all waiting callbacks at the current simulation time.
    Triggering twice is an error -- events are single-use, as in SimPy.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None  # None = pending
        self._scheduled = False
        self._processed = False  # callbacks have run

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded or failed."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event is still pending")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's payload (or exception, if it failed)."""
        if self._ok is None:
            raise SimulationError("event is still pending")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional payload."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on the
        event.
        """
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() expects an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def _fire(self) -> None:
        """Run the callbacks; what this event's queue entry calls."""
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)
        if not self._ok and not callbacks:
            # An unhandled failure with nobody listening: surface it.
            raise self._value


class Timeout(Event):
    """An event that fires automatically after a fixed delay."""

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self._ok = True
        self._value = value
        env._schedule(self, delay=delay)

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout events trigger themselves")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout events trigger themselves")


class Process(Event):
    """Wraps a generator so it can be driven by the environment.

    A process is itself an event: it triggers when the generator returns
    (success, with the generator's return value) or raises (failure).
    Other processes can therefore ``yield proc`` to join on it.
    """

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send"):
            raise SimulationError("process() expects a generator")
        super().__init__(env)
        self._generator = generator
        # Bootstrap: resume the generator at the current time.
        init = Event(env)
        init._ok = True
        init.callbacks.append(self._resume)
        env._schedule(init)

    # -- generator driving ------------------------------------------------
    def _resume(self, event: Event) -> None:
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            self._ok = True
            self._value = stop.value
            self.env._schedule(self)
            return
        except BaseException as exc:
            self._ok = False
            self._value = exc
            self.env._schedule(self)
            return
        if not isinstance(next_event, Event):
            raise SimulationError(
                f"process yielded a non-event: {next_event!r}"
            )
        if next_event.processed:
            # Its callbacks already ran: resume at the current time.
            resume = Event(self.env)
            resume._ok = next_event._ok
            resume._value = next_event._value
            resume.callbacks.append(self._resume)
            self.env._schedule(resume)
        else:
            next_event.callbacks.append(self._resume)


class Environment:
    """The simulation clock and event queue.

    A queue entry is ``(when, eid, func, args)``; popping it sets the
    clock to ``when`` and calls ``func(*args)``.  An :class:`Event` is
    queued as its own ``_fire``; a scheduled call is queued as itself.

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
        if scheduler != "heap":
            raise SimulationError(
                f"unknown scheduler {scheduler!r}; the event queue is a heap")
        self._now = float(initial_time)
        #: Entries queued so far; the latest one's tie-break id.
        self._eid = 0
        self.queue_high_watermark = 0
        self._queue: List[tuple] = []
        self._push: Callable[[tuple], None] = (
            self._push_tracked if track_stats
            else partial(heapq.heappush, self._queue))

    @property
    def now(self) -> float:
        """Current simulation time in microseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Entries popped so far: every one queued that is no longer
        queued, so the pop loop carries no bookkeeping of its own."""
        return self._eid - len(self._queue)

    # -- factory helpers ----------------------------------------------------
    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` microseconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Register a generator as a new simulation process."""
        return Process(self, generator)

    def call_later(self, delay: float, func: Callable[..., Any],
                   *args: Any) -> None:
        """Call ``func(*args)`` once, ``delay`` microseconds from now.

        One queue entry and nothing else -- no :class:`Event`, no
        generator -- so there is nothing to return, join or cancel.  Use
        it (or :meth:`call_at`) for a delay nobody waits on and for the
        steps of a state machine; use :meth:`process` for anything that
        waits on other events.  An exception ``func`` raises surfaces
        from :meth:`step`.
        """
        if delay < 0:
            raise SimulationError(f"negative call_later delay: {delay!r}")
        self._eid += 1
        self._push((self._now + delay, self._eid, func, args))

    def call_at(self, when: float, func: Callable[..., Any],
                *args: Any) -> None:
        """Call ``func(*args)`` once, at the absolute time ``when``.

        For a caller that computed an instant arithmetically (the end of
        a burst on a :class:`~repro.sim.cpu.Core`): ``now + (when - now)``
        need not be ``when`` in floating point, so the instant is taken
        as given.  Ties with anything else due at ``when`` resolve in
        scheduling order, as for :meth:`call_later`.
        """
        if when < self._now:
            raise SimulationError(
                f"call_at({when!r}) lies in the past (now={self._now!r})")
        self._eid += 1
        self._push((when, self._eid, func, args))

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if event._scheduled:
            return
        event._scheduled = True
        self._eid += 1
        self._push((self._now + delay, self._eid, event._fire, ()))

    def _push_tracked(self, entry: tuple) -> None:
        """Push plus the queue-depth watermark (``track_stats=True``)."""
        heapq.heappush(self._queue, entry)
        if len(self._queue) > self.queue_high_watermark:
            self.queue_high_watermark = len(self._queue)

    def step(self) -> None:
        """Pop the single next queue entry and call it."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        self._now, _, func, args = heapq.heappop(self._queue)
        func(*args)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock passes ``until``."""
        if until is not None and until < self._now:
            raise SimulationError("run(until) lies in the past")
        queue, pop = self._queue, heapq.heappop
        while queue:
            if until is not None and queue[0][0] > until:
                break
            self._now, _, func, args = pop(queue)  # step(), inlined
            func(*args)
        if until is not None:
            self._now = until

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")
