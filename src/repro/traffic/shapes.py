"""Time-varying load shapes: the "millions of users" workload axis.

A :class:`LoadShape` maps simulation time to an instantaneous offered
rate in Mpps.  :class:`~repro.traffic.generator.TrafficSource` consults
the shape once per burst, so the injected traffic traces the curve
instead of a constant: diurnal sinusoids (the day/night swing an ISP
sees), flash crowds (a sudden ramp to a plateau and back -- the event
that motivates autoscaling over static peak provisioning), and DDoS-like
burst trains (short savage spikes over a quiet floor).

Shapes are pure functions of time -- deterministic, seedless -- so every
run that shares a shape and a source seed replays the exact same packet
schedule.
"""

from __future__ import annotations

import math
from typing import List, Tuple

__all__ = [
    "LoadShape",
    "ConstantShape",
    "DiurnalShape",
    "FlashCrowdShape",
    "BurstTrainShape",
]


class LoadShape:
    """Base class: instantaneous offered rate as a function of time."""

    def rate_mpps(self, t_us: float) -> float:
        raise NotImplementedError

    def peak_mpps(self, horizon_us: float, step_us: float = 50.0) -> float:
        """The highest rate the shape reaches within ``horizon_us``.

        Static peak provisioning sizes for exactly this number; the
        autoscale bench uses it to build the strawman it must beat.
        """
        steps = max(1, int(horizon_us / step_us))
        return max(
            self.rate_mpps(i * step_us) for i in range(steps + 1)
        )

    def profile(self, horizon_us: float, step_us: float) -> List[Tuple[float, float]]:
        """Sampled (t_us, rate) curve, handy for plotting and tests."""
        out = []
        t = 0.0
        while t <= horizon_us:
            out.append((t, self.rate_mpps(t)))
            t += step_us
        return out


class ConstantShape(LoadShape):
    """A flat rate -- the degenerate shape, for uniform plumbing."""

    def __init__(self, rate_mpps: float):
        if rate_mpps <= 0:
            raise ValueError("rate must be positive")
        self._rate = rate_mpps

    def rate_mpps(self, t_us: float) -> float:
        return self._rate

    def __repr__(self) -> str:
        return f"ConstantShape({self._rate:.3f} Mpps)"


class DiurnalShape(LoadShape):
    """A day/night sinusoid between ``base_mpps`` and ``peak_mpps``,
    starting at its trough at t=0."""

    def __init__(self, base_mpps: float, peak_mpps: float, period_us: float):
        if base_mpps <= 0 or peak_mpps < base_mpps:
            raise ValueError("need 0 < base <= peak")
        if period_us <= 0:
            raise ValueError("period must be positive")
        self.base = base_mpps
        self.peak = peak_mpps
        self.period = period_us

    def rate_mpps(self, t_us: float) -> float:
        # Cosine from trough: rate(0) == base.
        cycle = t_us / self.period * 2.0 * math.pi
        mid = (self.base + self.peak) / 2.0
        swing = (self.peak - self.base) / 2.0
        return mid - swing * math.cos(cycle)

    def __repr__(self) -> str:
        return (f"DiurnalShape({self.base:.3f}..{self.peak:.3f} Mpps, "
                f"period={self.period:.0f}us)")


class FlashCrowdShape(LoadShape):
    """Quiet floor, then a ramp to a plateau, then an exponential decay.

    The canonical autoscaling stimulus: ``base_mpps`` until ``start_us``,
    a linear ramp over ``ramp_us`` up to ``peak_mpps``, held for
    ``hold_us``, then exponential decay back toward the floor with time
    constant ``decay_us``.
    """

    def __init__(
        self,
        base_mpps: float,
        peak_mpps: float,
        start_us: float,
        ramp_us: float,
        hold_us: float,
        decay_us: float,
    ):
        if base_mpps <= 0 or peak_mpps < base_mpps:
            raise ValueError("need 0 < base <= peak")
        if min(start_us, ramp_us, hold_us, decay_us) < 0:
            raise ValueError("times must be non-negative")
        self.base = base_mpps
        self.peak = peak_mpps
        self.start = start_us
        self.ramp = ramp_us
        self.hold = hold_us
        self.decay = decay_us

    def rate_mpps(self, t_us: float) -> float:
        if t_us < self.start:
            return self.base
        t = t_us - self.start
        if t < self.ramp:
            frac = t / self.ramp if self.ramp > 0 else 1.0
            return self.base + (self.peak - self.base) * frac
        t -= self.ramp
        if t < self.hold:
            return self.peak
        t -= self.hold
        if self.decay <= 0:
            return self.base
        return self.base + (self.peak - self.base) * math.exp(-t / self.decay)

    def __repr__(self) -> str:
        return (f"FlashCrowdShape({self.base:.3f}->{self.peak:.3f} Mpps "
                f"@{self.start:.0f}us)")


class BurstTrainShape(LoadShape):
    """DDoS-like periodic spikes: ``burst_mpps`` for ``burst_len_us`` at
    the top of every ``period_us``, ``base_mpps`` otherwise."""

    def __init__(
        self,
        base_mpps: float,
        burst_mpps: float,
        period_us: float,
        burst_len_us: float,
    ):
        if base_mpps <= 0 or burst_mpps < base_mpps:
            raise ValueError("need 0 < base <= burst")
        if period_us <= 0 or not 0 <= burst_len_us <= period_us:
            raise ValueError("need 0 <= burst_len <= period")
        self.base = base_mpps
        self.burst = burst_mpps
        self.period = period_us
        self.burst_len = burst_len_us

    def rate_mpps(self, t_us: float) -> float:
        offset = t_us % self.period
        return self.burst if offset < self.burst_len else self.base

    def __repr__(self) -> str:
        return (f"BurstTrainShape({self.base:.3f}|{self.burst:.3f} Mpps, "
                f"period={self.period:.0f}us)")
