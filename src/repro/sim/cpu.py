"""CPU core model: one busy server per core, as in the paper's pinning.

The paper dedicates a physical core to each container (NF, classifier,
merger, OpenNetVM manager) and isolates it from the OS scheduler.  A
:class:`Core` is therefore a single-server queue: work items (batches of
packets) are serviced one at a time; the cumulative busy time yields the
utilisation statistics used in the evaluation harness.
"""

from __future__ import annotations

from .engine import Environment

__all__ = ["Core"]


class Core:
    """A single CPU core servicing work serially.

    A pinned poll-mode thread handles one piece of work at a time, so
    the core is a clock of its own: :meth:`reserve` books the next piece
    and answers when it ends.  Whoever drives the core -- a state machine
    walking a burst -- carries that answer forward as its own ``now``
    and schedules one call at the burst's last instant.
    """

    def __init__(self, env: Environment, core_id: int = 0, name: str = ""):
        self.env = env
        self.core_id = core_id
        self.name = name or f"core{core_id}"
        self.busy_until = 0.0
        self.busy_time = 0.0
        self._started = env.now

    def reserve(self, now: float, duration: float) -> float:
        """Occupy the core for ``duration`` us from ``now``; returns the
        instant the work completes.

        The core is non-preemptive: if it is already busy, the new work
        starts when the current backlog drains.  The instant is
        ``now + (finish - now)``, not ``finish``: that is where a
        ``timeout(finish - now)`` would fire, and the two differ in the
        last bit often enough to matter to a bit-exact model clock.
        """
        if duration < 0:
            raise ValueError("negative execution duration")
        busy_until = self.busy_until
        finish = (now if now > busy_until else busy_until) + duration
        self.busy_until = finish
        self.busy_time += duration
        return now + (finish - now)

    def busy_time_at(self, now: float) -> float:
        """Busy time accrued up to ``now``.

        ``busy_time`` is credited when work is reserved, ahead of the
        clock; reservations are contiguous, so what lies beyond ``now``
        is exactly the tail ``busy_until - now`` (to rounding, hence the
        floor at zero).
        """
        ahead = self.busy_until - now
        return max(0.0, self.busy_time - ahead) if ahead > 0.0 else self.busy_time

    def utilisation(self) -> float:
        """Fraction of elapsed simulated time this core spent busy."""
        now = self.env.now
        elapsed = now - self._started
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time_at(now) / elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Core {self.name} busy_until={self.busy_until:.2f}>"
