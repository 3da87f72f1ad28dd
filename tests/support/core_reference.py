"""Reference core: ``Core.execute`` as it was before ``Core.reserve``.

The pinned-core model used to hand out one ``Timeout`` per piece of work
-- ``yield core.execute(duration)`` -- and the model clock of every
paper-facing number was whatever instant the engine fired that timeout
at.  ``Core.reserve`` computes the same instant arithmetically so that a
burst is one call; this class keeps the event-driven original, verbatim,
as the oracle the property test in
``tests/property/test_core_reserve.py`` replays random schedules against.
"""

from repro.sim.engine import Environment, Event


class ReferenceCore:
    """A single CPU core servicing work serially, one timeout per job."""

    def __init__(self, env: Environment, busy_until: float = 0.0):
        self.env = env
        self.busy_until = busy_until
        self.busy_time = 0.0

    def execute(self, duration: float) -> Event:
        """Reserve the core for ``duration`` us; fires when work completes.

        The core is non-preemptive: if it is already busy, the new work
        starts when the current backlog drains.
        """
        if duration < 0:
            raise ValueError("negative execution duration")
        start = max(self.env.now, self.busy_until)
        finish = start + duration
        self.busy_until = finish
        self.busy_time += duration
        return self.env.timeout(finish - self.env.now)
