"""A minimal discrete-event simulation (DES) engine.

This module is the substrate that stands in for the paper's physical
testbed (DPDK, CPU cores, NIC queues).  It is a deliberately small,
dependency-free cousin of SimPy: simulation *processes* are Python
generators that ``yield`` events; the :class:`Environment` advances a
virtual clock and resumes processes when the events they wait on fire.
A one-shot delay with nothing to wait on afterwards -- a ring hop, a NIC
receive or transmit leg -- is not a process: :meth:`Environment.call_later`
schedules one plain call on one :class:`Timeout`.

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
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for illegal uses of the simulation API."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


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
        self._target: Optional[Event] = None
        self._interrupts: List[Interrupt] = []
        self._interrupt_pending = False
        # Bootstrap: resume the generator at the current time.  The init
        # event is deliberately not tracked as the wait target: an
        # interrupt carrier scheduled before the first resume carries a
        # later event id, so the bootstrap always runs first and the
        # Interrupt is never thrown into an unstarted generator.
        init = Event(env)
        init._ok = True
        init.callbacks.append(self._resume)
        env._schedule(init)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is a no-op error, matching SimPy.
        Concurrent interrupts are safe: causes queue on the process and a
        single carrier event drains them in arrival order, so a second
        interrupt racing the first can never re-enter the generator on a
        stale dispatch state.
        """
        if not self.is_alive:
            raise SimulationError("cannot interrupt a finished process")
        self._interrupts.append(Interrupt(cause))
        if self._interrupt_pending:
            # A carrier is already queued; it drains every pending cause.
            return
        self._interrupt_pending = True
        # Detach from whatever we were waiting on.
        if self._target is not None and self._resume in self._target.callbacks:
            self._target.callbacks.remove(self._resume)
            self._target = None
        carrier = Event(self.env)
        carrier._ok = True
        carrier.callbacks.append(self._deliver_interrupts)
        self.env._schedule(carrier)

    def _deliver_interrupts(self, _carrier: Event) -> None:
        """Throw every queued :class:`Interrupt` into the generator.

        Runs as the carrier event's callback.  Causes queued while this
        drain is in flight (e.g. by an interrupt handler interrupting
        itself) are delivered in the same pass; interrupts that raced the
        process finishing are discarded, never thrown into a closed
        generator.
        """
        self._interrupt_pending = False
        while self._interrupts:
            if not self.is_alive:
                # The process finished between scheduling and delivery
                # (or a prior cause in this batch killed it): drop the
                # rest rather than throwing into a closed generator.
                self._interrupts.clear()
                return
            cause = self._interrupts.pop(0)
            # Detach again at delivery time: the process may have been
            # resumed (and re-armed on a new target) by an earlier event
            # at this same timestamp.
            if (self._target is not None
                    and self._resume in self._target.callbacks):
                self._target.callbacks.remove(self._resume)
            failure = Event(self.env)
            failure._ok = False
            failure._value = cause
            failure._defused = True  # type: ignore[attr-defined]
            failure._processed = True
            failure._scheduled = True
            self._resume(failure)

    # -- generator driving ------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._target = None
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
            # Its callbacks already ran: resume at the current time.  The
            # fresh resume event is tracked as the wait target so a racing
            # interrupt can detach it instead of double-dispatching.
            resume = Event(self.env)
            resume._ok = next_event._ok
            resume._value = next_event._value
            resume.callbacks.append(self._resume)
            self._target = resume
            self.env._schedule(resume)
        else:
            self._target = next_event
            next_event.callbacks.append(self._resume)


class Environment:
    """The simulation clock and event queue.

    ``scheduler`` selects the event-queue implementation: ``"heap"``
    (the default binary heap) or ``"calendar"`` (the
    :class:`~repro.sim.calendar.CalendarQueue`, O(1) amortised when
    event times are dense).  Both yield the exact same event order --
    ties resolve by scheduling id either way -- which the property
    suite verifies over arbitrary schedules.
    """

    SCHEDULERS = ("heap", "calendar")

    def __init__(
        self,
        initial_time: float = 0.0,
        track_stats: bool = False,
        scheduler: str = "heap",
    ):
        if scheduler not in self.SCHEDULERS:
            raise SimulationError(
                f"unknown scheduler {scheduler!r}; pick from {self.SCHEDULERS}"
            )
        self._now = float(initial_time)
        self.scheduler = scheduler
        #: Events scheduled so far; the latest one's tie-break id.
        self._eid = 0
        self.queue_high_watermark = 0
        if scheduler == "calendar":
            from .calendar import CalendarQueue

            self._queue: List = CalendarQueue(start=self._now)
            # Shadow the heap methods on this instance only; the default
            # heap path stays branch-free.
            self._schedule = (  # type: ignore[method-assign]
                self._schedule_calendar_tracked
                if track_stats
                else self._schedule_calendar
            )
            self.step = self._step_calendar  # type: ignore[method-assign]
        else:
            self._queue = []
            if track_stats:
                # Shadow the class method with the tracking variant on
                # this instance only, so the default event loop pays
                # nothing.
                self._schedule = self._schedule_tracked  # type: ignore[method-assign]

    @property
    def now(self) -> float:
        """Current simulation time in microseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Events popped so far: every one scheduled that is no longer
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
                   *args: Any) -> Timeout:
        """Call ``func(*args)`` once, ``delay`` microseconds from now.

        One :class:`Timeout`, one queue entry, one callback -- no
        generator, no bootstrap or completion event.  Use it for a
        one-shot delay nobody joins on; use :meth:`process` for anything
        that loops, waits on other events or can be interrupted.  An
        exception ``func`` raises surfaces from :meth:`step`.
        """
        timeout = Timeout(self, delay)
        timeout.callbacks.append(lambda _event: func(*args))
        return timeout

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that fires once every given event has succeeded."""
        events = list(events)
        done = self.event()
        remaining = [len(events)]
        if not events:
            done._ok = True
            done._value = []
            self._schedule(done)
            return done

        def on_fire(ev: Event) -> None:
            if not ev._ok:
                if not done.triggered:
                    done.fail(ev._value)
                return
            remaining[0] -= 1
            if remaining[0] == 0 and not done.triggered:
                done.succeed([e._value for e in events])

        for ev in events:
            if ev.processed:
                on_fire(ev)
            else:
                ev.callbacks.append(on_fire)
        return done

    def any_of(self, events: Iterable[Event]) -> Event:
        """An event that fires as soon as any given event succeeds."""
        events = list(events)
        done = self.event()

        def on_fire(ev: Event) -> None:
            if done.triggered:
                return
            if ev._ok:
                done.succeed(ev._value)
            else:
                done.fail(ev._value)

        for ev in events:
            if ev.processed:
                on_fire(ev)
                break
            ev.callbacks.append(on_fire)
        return done

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if event._scheduled:
            return
        event._scheduled = True
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, self._eid, event))

    def _schedule_tracked(self, event: Event, delay: float = 0.0) -> None:
        """`_schedule` plus queue-depth watermark (``track_stats=True``)."""
        if event._scheduled:
            return
        event._scheduled = True
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, self._eid, event))
        if len(self._queue) > self.queue_high_watermark:
            self.queue_high_watermark = len(self._queue)

    def _schedule_calendar(self, event: Event, delay: float = 0.0) -> None:
        """`_schedule` against the calendar queue (``scheduler="calendar"``)."""
        if event._scheduled:
            return
        event._scheduled = True
        self._eid += 1
        self._queue.push(self._now + delay, self._eid, event)

    def _schedule_calendar_tracked(self, event: Event, delay: float = 0.0) -> None:
        if event._scheduled:
            return
        event._scheduled = True
        self._eid += 1
        self._queue.push(self._now + delay, self._eid, event)
        if len(self._queue) > self.queue_high_watermark:
            self.queue_high_watermark = len(self._queue)

    def step(self) -> None:
        """Process the single next event in the queue."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _, event = heapq.heappop(self._queue)
        self._now = when
        event._processed = True
        callbacks, event.callbacks = event.callbacks, []
        for callback in callbacks:
            callback(event)
        if not event._ok and not callbacks and not getattr(event, "_defused", False):
            # An unhandled failure with nobody listening: surface it.
            raise event._value

    def _step_calendar(self) -> None:
        """`step` popping from the calendar queue."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _, event = self._queue.pop_min()
        self._now = when
        event._processed = True
        callbacks, event.callbacks = event.callbacks, []
        for callback in callbacks:
            callback(event)
        if not event._ok and not callbacks and not getattr(event, "_defused", False):
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock passes ``until``."""
        if until is not None and until < self._now:
            raise SimulationError("run(until) lies in the past")
        while self._queue:
            when = self._queue[0][0]
            if until is not None and when > until:
                self._now = until
                return
            self.step()
        if until is not None:
            self._now = until

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")
