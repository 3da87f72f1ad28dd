"""Reference core: ``Core.execute`` as it was before ``Core.reserve``.

The pinned-core model used to hand out one engine entry per piece of
work -- ``core.execute(duration)`` fired when the work completed -- and
the model clock of every paper-facing number was whatever instant the
engine fired that entry at: ``now + (finish - now)``, a *delay* from now,
not the absolute ``finish``.  ``Core.reserve`` computes the same instant
arithmetically so that a burst is one call; this class keeps the
event-driven original, one delayed call per job, as the oracle the
property test in ``tests/property/test_core_reserve.py`` replays random
schedules against.
"""

from typing import Any, Callable

from repro.sim.engine import Environment


class ReferenceCore:
    """A single CPU core servicing work serially, one queue entry per job."""

    def __init__(self, env: Environment, busy_until: float = 0.0):
        self.env = env
        self.busy_until = busy_until
        self.busy_time = 0.0

    def execute(self, duration: float, then: Callable[..., Any],
                *args: Any) -> None:
        """Reserve the core for ``duration`` us; ``then(*args)`` fires
        when the work completes.

        The core is non-preemptive: if it is already busy, the new work
        starts when the current backlog drains.
        """
        if duration < 0:
            raise ValueError("negative execution duration")
        start = max(self.env.now, self.busy_until)
        finish = start + duration
        self.busy_until = finish
        self.busy_time += duration
        self.env.call_later(finish - self.env.now, then, *args)
