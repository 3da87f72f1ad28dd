"""Declarative SLO watch rules over windowed telemetry.

A :class:`WatchRule` is a compiled one-line condition evaluated against
every completed :class:`~repro.telemetry.timeseries.Window`::

    ring.ids.rx.occupancy > 0.8 for 3 windows
    p99(latency_us) > 250
    p99_us > slo
    merger.at_timeout > 0

Grammar: ``<metric> <op> <threshold> [for <N> windows]``.

* ``<metric>`` resolves inside the window: a gauge probe first, then a
  counter delta.  ``p50(name)`` / ``p90(name)`` / ``p99(name)`` /
  ``mean(name)`` read the window's delta histogram; the shorthands
  ``p50_us``/``p99_us``/``mean_us`` mean the same over ``latency_us``.
* ``<op>`` is one of ``>``, ``>=``, ``<``, ``<=``.
* ``<threshold>`` is a number, or the literal ``slo`` -- resolved from
  the ``slo_us`` the :class:`Watcher` was built with (a
  :class:`~repro.placement.request.Slo`'s ``max_delay_us``), so the
  same rule text serves every chain.
* ``for N windows`` requires N *consecutive* breaching windows before
  the rule fires (default 1); one non-breaching window clears it.

Rules are hysteretic state machines: the transition into breach emits a
``firing`` :class:`AlertEvent`, the transition out emits ``cleared``.
Windows where the metric is absent (nothing happened) count as
non-breaching, so a rule armed on ``merger.at_timeout`` fires during
the episode and clears when the sweeper goes quiet -- exactly the
subscription surface the ROADMAP autoscaler consumes.

The :class:`Watcher` fans a window out to all its rules, collects the
alert log, and mirrors fire/clear counts into the hub's registry
(``watch.<rule>.fired`` / ``watch.<rule>.cleared``) so alert activity
rides along in every exporter.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

from .hooks import TelemetryHub
from .timeseries import Sampler, Window

__all__ = ["AlertEvent", "WatchRule", "Watcher", "parse_rule"]

_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}

_RULE_RE = re.compile(
    r"^\s*(?P<metric>[A-Za-z0-9_.#~()-]+)\s*"
    r"(?P<op>>=|<=|>|<)\s*"
    r"(?P<threshold>-?\d+(?:\.\d+)?|slo)\s*"
    r"(?:for\s+(?P<windows>\d+)\s+windows?)?\s*$"
)

_AGG_RE = re.compile(r"^(?P<agg>p50|p90|p99|mean)\((?P<name>[^)]+)\)$")

#: ``p99_us`` -> percentile 99 over the windowed latency histogram.
_SHORTHAND = {
    "p50_us": ("p50", "latency_us"),
    "p90_us": ("p90", "latency_us"),
    "p99_us": ("p99", "latency_us"),
    "mean_us": ("mean", "latency_us"),
}


@dataclass
class AlertEvent:
    """One watch-rule state transition."""

    rule: str
    state: str  # "firing" | "cleared"
    ts_us: float
    window_index: int
    value: Optional[float]
    threshold: float

    def describe(self) -> str:
        value = "-" if self.value is None else f"{self.value:.3g}"
        return (f"[{self.ts_us:12.1f}us] {self.state.upper():<7s} {self.rule} "
                f"(value={value}, threshold={self.threshold:g}, "
                f"window={self.window_index})")


def _resolve(window: Window, metric: str) -> Optional[float]:
    """Evaluate a metric expression inside one window."""
    shorthand = _SHORTHAND.get(metric)
    if shorthand is not None:
        agg, name = shorthand
    else:
        match = _AGG_RE.match(metric)
        if match is None:
            return window.value(metric)
        agg, name = match.group("agg"), match.group("name").strip()
    histogram = window.histograms.get(name)
    if histogram is None or histogram.count == 0:
        return None
    if agg == "mean":
        return histogram.mean
    return histogram.percentile(float(agg[1:]))


class WatchRule:
    """One compiled, hysteretic watch condition (see module docstring)."""

    def __init__(self, metric: str, op: str, threshold: Union[float, str],
                 for_windows: int = 1, text: Optional[str] = None):
        if op not in _OPS:
            raise ValueError(f"unknown operator {op!r}")
        if for_windows < 1:
            raise ValueError("for_windows must be >= 1")
        self.metric = metric
        self.op = op
        self.threshold = threshold  # float, or the literal "slo"
        self.for_windows = for_windows
        self.text = text or self._render()
        self.firing = False
        self.fired = 0
        self.cleared = 0
        self._streak = 0

    def _render(self) -> str:
        suffix = (f" for {self.for_windows} windows"
                  if self.for_windows > 1 else "")
        return f"{self.metric} {self.op} {self.threshold}{suffix}"

    def resolve_threshold(self, slo_us: Optional[float]) -> float:
        if self.threshold == "slo":
            if slo_us is None:
                raise ValueError(
                    f"rule {self.text!r} references 'slo' but the watcher "
                    "was built without one"
                )
            return float(slo_us)
        return float(self.threshold)

    def observe(self, window: Window,
                slo_us: Optional[float] = None) -> Optional[AlertEvent]:
        """Feed one window; returns an event on a state transition."""
        threshold = self.resolve_threshold(slo_us)
        value = _resolve(window, self.metric)
        breaching = value is not None and _OPS[self.op](value, threshold)
        if breaching:
            self._streak += 1
            if not self.firing and self._streak >= self.for_windows:
                self.firing = True
                self.fired += 1
                return AlertEvent(self.text, "firing", window.end_us,
                                  window.index, value, threshold)
            return None
        self._streak = 0
        if self.firing:
            self.firing = False
            self.cleared += 1
            return AlertEvent(self.text, "cleared", window.end_us,
                              window.index, value, threshold)
        return None


def parse_rule(text: str) -> WatchRule:
    """Compile ``"<metric> <op> <threshold> [for N windows]"`` text."""
    match = _RULE_RE.match(text)
    if match is None:
        raise ValueError(
            f"unparsable watch rule {text!r} (expected "
            "'<metric> <op> <number|slo> [for N windows]')"
        )
    threshold: Union[float, str] = match.group("threshold")
    if threshold != "slo":
        threshold = float(threshold)
    windows = int(match.group("windows") or 1)
    return WatchRule(match.group("metric"), match.group("op"), threshold,
                     for_windows=windows, text=" ".join(text.split()))


class Watcher:
    """Evaluates a rule set per window; the alert subscription surface.

    Attach to a sampler with :meth:`attach` (or hand
    :meth:`observe` to ``sampler.subscribe`` yourself).  Alert events
    accumulate in :attr:`events`; ``on_alert`` callbacks (a CLI printing
    live, a future autoscaler reacting) receive them synchronously.
    """

    def __init__(
        self,
        rules: Sequence[Union[str, WatchRule]],
        slo_us: Optional[float] = None,
        hub: Optional[TelemetryHub] = None,
    ):
        self.rules: List[WatchRule] = [
            rule if isinstance(rule, WatchRule) else parse_rule(rule)
            for rule in rules
        ]
        self.slo_us = slo_us
        self.hub = hub
        self.events: List[AlertEvent] = []
        self._callbacks: List[Callable[[AlertEvent], None]] = []

    def attach(self, sampler: Sampler) -> "Watcher":
        sampler.subscribe(self.observe)
        return self

    def on_alert(self, callback: Callable[[AlertEvent], None]) -> None:
        self._callbacks.append(callback)

    def observe(self, window: Window) -> List[AlertEvent]:
        """Evaluate every rule against one completed window."""
        emitted: List[AlertEvent] = []
        for rule in self.rules:
            event = rule.observe(window, slo_us=self.slo_us)
            if event is None:
                continue
            emitted.append(event)
            self.events.append(event)
            if self.hub is not None and self.hub.enabled:
                self.hub.inc(f"watch.{rule.text}.{'fired' if event.state == 'firing' else 'cleared'}")
            for callback in self._callbacks:
                callback(event)
        return emitted

    # ------------------------------------------------------------ summary
    @property
    def fired(self) -> int:
        return sum(rule.fired for rule in self.rules)

    @property
    def cleared(self) -> int:
        return sum(rule.cleared for rule in self.rules)

    def still_firing(self) -> List[WatchRule]:
        return [rule for rule in self.rules if rule.firing]
