"""The DES-resident autoscaler: watch windows, change membership live.

Closes the control loop the ROADMAP names: the PR-8 windowed sampler
streams ring occupancy / AT depth / per-core utilisation, hysteretic
:class:`~repro.telemetry.watch.WatchRule` conditions decide when the
deployment is under- or over-provisioned, and the decision executes as
the server's live membership protocol
(:meth:`~repro.dataplane.server.NFPServer.request_rescale`): classifier
hold, drain barrier, stateful handover per Khalid & Akella, RSS
re-split, flow-cache invalidation.

The controller is deliberately *windowed*, not per-packet: it acts at
sampler cadence, one membership change in flight at a time, with a
cooldown between decisions so the hysteresis of the watch rules and the
cost of the drain barrier are both respected.

Core-second accounting rides along: :meth:`Autoscaler.core_us` is the
exact integral of the server's active core count over time (piecewise
constant between scale events), the number the flash-crowd benchmark
compares against static peak provisioning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..telemetry.watch import AlertEvent, Watcher

__all__ = ["ScalePolicy", "ScaleDecision", "Autoscaler"]


@dataclass
class ScalePolicy:
    """What to scale, between which bounds, on which signals.

    ``up_rule`` / ``down_rule`` are watch-rule texts (the PR-8 grammar:
    ``"<metric> <op> <number|slo> [for N windows]"``).  While a rule is
    *firing* the controller steps the instance count once per
    ``cooldown_us`` until the rule clears or a bound is hit -- the rule's
    own ``for N windows`` streak provides the hysteresis.
    """

    name: str
    min_instances: int = 1
    max_instances: int = 4
    up_rule: str = "ring.occupancy > 0.5 for 2 windows"
    down_rule: str = "ring.occupancy < 0.05 for 6 windows"
    step: int = 1
    cooldown_us: float = 300.0
    #: Drain-barrier budget handed to the server per membership change.
    max_barrier_us: float = 10000.0

    def __post_init__(self) -> None:
        if not 1 <= self.min_instances <= self.max_instances:
            raise ValueError("need 1 <= min_instances <= max_instances")
        if self.step < 1:
            raise ValueError("step must be >= 1")
        if self.cooldown_us < 0:
            raise ValueError("cooldown must be >= 0")


@dataclass
class ScaleDecision:
    """One executed (or aborted) scaling action and its outcome."""

    ts_us: float
    direction: str  # "up" | "down"
    target: int
    #: The server's membership-change record (see
    #: NFPServer.request_rescale); set when the change completes.
    outcome: Optional[Dict] = field(default=None)

    @property
    def aborted(self) -> bool:
        return bool(self.outcome and self.outcome.get("aborted"))


class Autoscaler:
    """Watches a sampler and rescales one NF group live.

    Wire-up::

        sampler = Sampler(hub, window_us=50.0)
        server.arm_sampler(sampler)
        scaler = Autoscaler(server, sampler, ScalePolicy("ids", ...))

    The controller enables the server's flow directory (handover needs
    every live flow key), attaches its own :class:`Watcher` to the
    sampler, and from then on reacts to completed windows.  With
    ``orchestrator``/``mid`` given, every completed change is mirrored
    into the control plane via ``Orchestrator.rescale`` so the deployed
    :class:`~repro.core.scaling.ScaledGraph` record tracks reality.
    """

    def __init__(
        self,
        server,
        sampler,
        policy: ScalePolicy,
        orchestrator=None,
        mid: Optional[int] = None,
    ):
        if policy.name not in server.runtimes:
            raise ValueError(f"no runtime group {policy.name!r} on the server")
        self.server = server
        self.policy = policy
        self.orchestrator = orchestrator
        self.mid = mid
        server.enable_flow_directory()
        self.watcher = Watcher([policy.up_rule, policy.down_rule],
                               hub=server.telemetry)
        self._up_rule, self._down_rule = self.watcher.rules
        self.watcher.attach(sampler)
        sampler.subscribe(self._on_window)
        self.decisions: List[ScaleDecision] = []
        self._busy = False
        self._last_action_us = -float("inf")
        self._windows_seen = 0

    # ------------------------------------------------------------- control
    def _on_window(self, window) -> None:
        """Decide after each window (the watcher already observed it)."""
        self._windows_seen += 1
        now = window.end_us
        if self._busy or now - self._last_action_us < self.policy.cooldown_us:
            return
        group = self.server.runtimes[self.policy.name]
        count = group.count
        if self._up_rule.firing and count < self.policy.max_instances:
            target = min(count + self.policy.step, self.policy.max_instances)
            self._execute(now, "up", target)
        elif self._down_rule.firing and count > self.policy.min_instances:
            target = max(count - self.policy.step, self.policy.min_instances)
            self._execute(now, "down", target)

    def _execute(self, now: float, direction: str, target: int) -> None:
        decision = ScaleDecision(ts_us=now, direction=direction, target=target)
        self.decisions.append(decision)
        self._busy = True
        self._last_action_us = now

        def done(outcome: Dict) -> None:
            self._busy = False
            decision.outcome = outcome
            if (self.orchestrator is not None and self.mid is not None
                    and not decision.aborted):
                self.orchestrator.rescale(
                    self.mid, self.policy.name, outcome["to"])

        self.server.request_rescale(
            self.policy.name, target,
            max_barrier_us=self.policy.max_barrier_us, on_done=done,
        )

    # ------------------------------------------------------------- summary
    @property
    def alerts(self) -> List[AlertEvent]:
        return list(self.watcher.events)

    @property
    def scale_ups(self) -> int:
        return sum(1 for d in self.decisions
                   if d.direction == "up" and not d.aborted)

    @property
    def scale_downs(self) -> int:
        return sum(1 for d in self.decisions
                   if d.direction == "down" and not d.aborted)

    def core_us(self, end_us: Optional[float] = None) -> float:
        """Exact core-microsecond integral from t=0 to ``end_us``.

        The server's active core count is piecewise constant between
        membership changes; walk the scale-event log backwards from the
        current count to reconstruct each segment.  This is the cost
        side of the autoscaling claim: hold the SLO with fewer total
        core-seconds than static peak provisioning.
        """
        if end_us is None:
            end_us = self.server.env.now
        active = self.server.active_cores
        t = end_us
        total = 0.0
        for event in reversed(self.server.scale_events):
            if event["aborted"] or event["ts_us"] >= t:
                continue
            total += active * (t - event["ts_us"])
            active -= event["to"] - event["from"]
            t = event["ts_us"]
        total += active * t
        return total

    def describe(self) -> str:
        lines = [
            f"autoscaler[{self.policy.name}] "
            f"{self.policy.min_instances}..{self.policy.max_instances} "
            f"up[{self.policy.up_rule}] down[{self.policy.down_rule}]"
        ]
        for decision in self.decisions:
            outcome = decision.outcome or {}
            status = "aborted" if decision.aborted else (
                f"{outcome.get('from', '?')}->{outcome.get('to', '?')} "
                f"moved={outcome.get('moved_flows', 0)} "
                f"handover={outcome.get('handover_flows', 0)} "
                f"barrier={outcome.get('barrier_us', 0.0):.1f}us"
            )
            lines.append(
                f"  [{decision.ts_us:12.1f}us] scale-{decision.direction} "
                f"-> {decision.target} ({status})"
            )
        return "\n".join(lines)
