"""Execute a placement plan on the DES, with server-crash failover.

:func:`build_timed` turns one
:class:`~repro.placement.plan.ChainPlacement` into the DES
:class:`~repro.multiserver.TimedMultiServer` with the placement's own
slices and link characteristics; :class:`_Failover` runs a placement
and its pre-planned backup side by side for ``measure_placed(faults=)``.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional, Sequence, Union

from ..faults.injector import FaultInjector
from ..faults.model import FaultKind, FaultPlan, FaultSpec
from ..multiserver.timed import TimedMultiServer
from ..net.packet import Packet
from ..sim import Environment, LatencyStats, RateMeter
from ..sim.params import DEFAULT_PARAMS, SimParams
from ..telemetry.hooks import NULL_HUB, TelemetryHub
from .plan import ChainPlacement

__all__ = ["build_timed"]


def build_timed(
    placement: ChainPlacement,
    env: Environment,
    params: SimParams = DEFAULT_PARAMS,
    path_id: int = 1,
    telemetry: Optional[TelemetryHub] = None,
) -> TimedMultiServer:
    """The DES multi-server pipeline for one placed chain.

    Links serialise at each hop's own bandwidth and pay its propagation
    delay, so the measured end-to-end percentiles validate the plan's
    predicted delay against the chain's SLO.
    """
    return TimedMultiServer(
        env, params, placement.request.graph, placement.slices,
        path_id=path_id, link_specs=placement.links, telemetry=telemetry,
    )


class _Failover:
    """Active (path id 1) + backup (path id 2) pipelines, one source.

    Both run in one :class:`~repro.sim.Environment`.  One
    :class:`~repro.faults.FaultInjector`, its labels server names
    (``"crash:s1:pkt=5"``: ``s1`` dies on the 5th frame that reaches
    it), is sampled each time a frame reaches a server: at the source's
    inject and at each server's ``on_emit`` hook.  A dead server emits
    nothing -- every frame it holds or is sent is a ``server_crash``
    drop.  Once an active server is down, the source's next packet
    rides the backup; with the backup down too, packets are
    ``no_placement`` drops.  Over both paths, ``injected == delivered +
    sum(drops by reason)``.  ``measure_placed`` reads it as it reads a
    :class:`~repro.multiserver.TimedMultiServer`: ``tail`` is itself
    (``latency`` / ``rate`` hold both paths' deliveries), ``paths`` pairs
    each path's server names with its pipeline (whose links publish
    per path), and ``lost`` counts the crash drops too.
    """

    nil_dropped = TimedMultiServer.nil_dropped  # both sum ``self.servers``
    cores_used = TimedMultiServer.cores_used

    def __init__(
        self,
        placement: ChainPlacement,
        env: Environment,
        params: SimParams,
        faults: Union[FaultPlan, Sequence[FaultSpec], str],
        telemetry: Optional[TelemetryHub],
    ):
        if placement.backup is None:
            raise ValueError(
                f"chain {placement.request.name!r} has no backup placement; "
                f"run plan_backups first"
            )
        if isinstance(faults, str):
            faults = FaultPlan.parse(faults)
        if any(spec.kind is not FaultKind.CRASH for spec in faults):
            raise ValueError("a placed chain's servers take crash faults only")
        self.env = env
        self.name = placement.request.name
        self.telemetry = telemetry if telemetry is not None else NULL_HUB
        active = build_timed(placement, env, params, 1, telemetry)
        backup = build_timed(placement.backup, env, params, 2, telemetry)
        self.paths = ((placement.path, active), (placement.backup.path, backup))
        self.servers = active.servers + backup.servers
        self.tail = self
        self.injector = FaultInjector(faults, telemetry=self.telemetry)
        self.injector.on_transition(self._on_transition)
        self.latency = LatencyStats()
        self.rate = RateMeter()
        self.injected = 0
        #: Source offers and deliveries, per path (active, backup).
        self.offered = [0, 0]
        self.delivered = [0, 0]
        #: Drops no server sees: ``server_crash``, ``no_placement``.
        self.drops: Dict[str, int] = {}
        self.crashed_us: Optional[float] = None
        self.recovery_us: Optional[float] = None
        for on_backup, (names, plane) in enumerate(self.paths):
            sends = [link.send for link in plane.links]
            sends.append(partial(self._deliver, on_backup))
            for name, nxt, send, server in zip(
                    names, list(names[1:]) + [None], sends, plane.servers):
                server.on_emit = partial(self._hop, name, nxt, send)

    def _on_transition(self, label: str, spec, state) -> None:
        if state.down and self.crashed_us is None and label in self.paths[0][0]:
            self.crashed_us = self.env.now

    def _reaches(self, name: str) -> bool:
        """A frame reaches ``name``: sample its health (may fire a fault)."""
        return not self.injector.on_packet(name, self.env.now).down

    def _drop(self, reason: str) -> None:
        self.drops[reason] = self.drops.get(reason, 0) + 1

    def inject(self, pkt: Packet) -> None:
        """The source's packet rides the first path with no server down."""
        self.injected += 1
        down = self.injector.is_down
        for on_backup, (names, plane) in enumerate(self.paths):
            if not any(down(name) for name in names):
                self.offered[on_backup] += 1
                if self._reaches(names[0]):
                    plane.inject(pkt)
                else:
                    self._drop("server_crash")
                return
        self._drop("no_placement")

    def _hop(self, name: str, nxt: Optional[str], send, pkt: Packet) -> None:
        """Server ``name`` emits ``pkt`` towards ``nxt`` (None: the wire)."""
        if self.injector.is_down(name) or (
                nxt is not None and not self._reaches(nxt)):
            self._drop("server_crash")
        else:
            send(pkt)

    def _deliver(self, on_backup: int, pkt: Packet) -> None:
        now = self.env.now
        latency_us = now - pkt.ingress_us
        self.telemetry.observe("latency_us", latency_us)
        self.latency.record(latency_us)
        self.rate.record_delivery(now)
        self.delivered[on_backup] += 1
        if on_backup and self.recovery_us is None:
            self.recovery_us = now - self.crashed_us

    @property
    def lost(self) -> int:
        return sum(s.lost for s in self.servers) + sum(self.drops.values())

    def publish(self) -> None:
        """The ledger (drops by reason over both paths: the servers' own
        and the crash), failover count and recovery time, into the hub."""
        hub, prefix = self.telemetry, f"placement.{self.name}."
        drops = dict(self.drops)
        for server in self.servers:
            for reason, count in server.drops.items():
                drops[reason] = drops.get(reason, 0) + count
        hub.inc(prefix + "injected", self.injected)
        hub.inc(prefix + "delivered", sum(self.delivered))
        hub.inc(prefix + "backup.injected", self.offered[1])
        hub.inc(prefix + "backup.delivered", self.delivered[1])
        for reason, count in sorted(drops.items()):
            hub.inc(f"{prefix}drop.{reason}", count)
        hub.gauge(prefix + "imbalance",
                  self.injected - sum(self.delivered) - sum(drops.values()))
        if self.crashed_us is not None:
            hub.inc(prefix + "failover")
        if self.recovery_us is not None:
            hub.gauge(prefix + "recovery_us", self.recovery_us)
