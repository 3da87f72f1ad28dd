"""The fault injector: per-instance health plus scheduled fault firing.

One :class:`FaultInjector` is shared by an execution plane (the DES
server, or the placed functional plane's servers).  The plane calls
:meth:`FaultInjector.on_packet` each time an instance is about to serve
a packet; the injector advances that instance's packet count, fires any
matching :class:`~repro.faults.model.FaultSpec` whose trigger is met,
and returns the instance's (possibly just-changed) health state.  Every
fired fault counts under ``faults.injected`` (and
``faults.injected.<kind>``) and is broadcast to transition listeners --
the hook failover and degradation hang off.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Sequence, Set, Union

from ..telemetry.hooks import NULL_HUB, TelemetryHub
from .model import FaultKind, FaultPlan, FaultSpec

__all__ = ["HealthState", "FaultInjector"]


class HealthState(enum.Enum):
    HEALTHY = "healthy"
    SLOW = "slow"
    HUNG = "hung"
    DEAD = "dead"

    @property
    def down(self) -> bool:
        """True when the instance can no longer make progress."""
        return self in (HealthState.HUNG, HealthState.DEAD)


#: Listener signature: (instance label, fired spec, new state).
TransitionListener = Callable[[str, FaultSpec, HealthState], None]


class FaultInjector:
    """Tracks instance health and fires scheduled faults."""

    def __init__(
        self,
        plan: Union[FaultPlan, Sequence[FaultSpec], None] = None,
        telemetry: TelemetryHub = NULL_HUB,
    ):
        if plan is None:
            specs: List[FaultSpec] = []
        elif isinstance(plan, FaultPlan):
            specs = list(plan.specs)
        else:
            specs = list(plan)
        self.specs = specs
        self.telemetry = telemetry
        self._health: Dict[str, HealthState] = {}
        self._slow: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}
        self._fired: Set[int] = set()
        self._listeners: List[TransitionListener] = []
        #: Total faults fired (mirrors the ``faults.injected`` counter).
        self.injected = 0

    # ----------------------------------------------------------- queries
    def state(self, label: str) -> HealthState:
        return self._health.get(label, HealthState.HEALTHY)

    def is_down(self, label: str) -> bool:
        return self.state(label).down

    def slow_factor(self, label: str) -> float:
        return self._slow.get(label, 1.0)

    def packet_count(self, label: str) -> int:
        return self._counts.get(label, 0)

    def on_transition(self, listener: TransitionListener) -> None:
        self._listeners.append(listener)

    # ------------------------------------------------------------ firing
    def on_packet(self, label: str, now_us: float) -> HealthState:
        """Advance ``label``'s packet count; fire due faults; health."""
        self._counts[label] = count = self._counts.get(label, 0) + 1
        for index, spec in enumerate(self.specs):
            if index in self._fired or not spec.matches(label):
                continue
            if spec.triggered(count, now_us):
                self._fired.add(index)
                self._fire(spec, label)
        return self.state(label)

    def _fire(self, spec: FaultSpec, label: str) -> None:
        self.injected += 1
        hub = self.telemetry
        if hub.enabled:
            hub.inc("faults.injected")
            hub.inc(f"faults.injected.{spec.kind.value}")
        if spec.kind is FaultKind.CRASH:
            self._health[label] = HealthState.DEAD
        elif spec.kind is FaultKind.HANG:
            self._health[label] = HealthState.HUNG
        elif spec.kind is FaultKind.SLOW:
            self._health[label] = HealthState.SLOW
            self._slow[label] = spec.slow_factor
        # RING_PRESSURE leaves health untouched: the instance still
        # serves packets, its ring just overflows; the listener (the
        # server) applies the capacity collapse.
        state = self.state(label)
        for listener in self._listeners:
            listener(label, spec, state)
