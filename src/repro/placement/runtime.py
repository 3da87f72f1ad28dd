"""Execute a placement plan, with server-crash failover onto the backup.

:func:`build_timed` turns one
:class:`~repro.placement.plan.ChainPlacement` into the DES
:class:`~repro.multiserver.TimedMultiServer` with the placement's own
slices and link characteristics.

:class:`PlacedDataplane` is the fault-tolerant wrapper the acceptance
tests drive: the active placement and its pre-planned server-disjoint
backup each run as a functional
:class:`~repro.multiserver.MultiServerDataplane` over the placement's
slices; every *server* is registered on a
:class:`~repro.faults.recovery.HealthBoard` and fed through a
:class:`~repro.faults.FaultInjector` whose labels are server names
(``"crash:s1:pkt=5"`` kills server ``s1`` on its 5th packet).  When a
server on the active path dies, the packet that witnessed the crash is
accounted -- not lost -- and every subsequent packet rides the backup
path.  A conservation ledger proves it:
``injected == emitted + sum(drops by reason)``, always.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

from ..faults.injector import FaultInjector
from ..faults.model import FaultPlan, FaultSpec
from ..faults.recovery import HealthBoard
from ..multiserver.dataplane import MultiServerDataplane
from ..multiserver.timed import TimedMultiServer
from ..net.packet import Packet
from ..sim import Environment
from ..sim.params import DEFAULT_PARAMS, SimParams
from ..telemetry.hooks import NULL_HUB, TelemetryHub
from .plan import ChainPlacement

__all__ = ["build_timed", "PlacedDataplane"]


def build_timed(
    placement: ChainPlacement,
    env: Environment,
    params: SimParams = DEFAULT_PARAMS,
    num_mergers: int = 1,
    path_id: int = 1,
    telemetry: Optional[TelemetryHub] = None,
) -> TimedMultiServer:
    """The DES multi-server pipeline for one placed chain.

    Links serialise at each hop's own bandwidth and pay its propagation
    delay, so the measured end-to-end percentiles validate the plan's
    predicted delay against the chain's SLO.
    """
    return TimedMultiServer(
        env, params, placement.request.graph,
        num_mergers=num_mergers, path_id=path_id,
        slices=placement.slices, link_specs=placement.links,
        telemetry=telemetry,
    )


class PlacedDataplane:
    """Active + pre-planned backup execution of one placed chain."""

    def __init__(
        self,
        placement: ChainPlacement,
        faults: Union[FaultPlan, Sequence[FaultSpec], str, None] = None,
        telemetry: Optional[TelemetryHub] = None,
    ):
        if placement.backup is None:
            raise ValueError(
                f"chain {placement.request.name!r} has no backup placement; "
                f"run plan_backups first"
            )
        self.placement = placement
        self.telemetry = telemetry if telemetry is not None else NULL_HUB
        self.active = MultiServerDataplane(
            placement.request.graph, path_id=1, slices=placement.slices)
        self.backup = MultiServerDataplane(
            placement.backup.request.graph, path_id=2,
            slices=placement.backup.slices)
        if isinstance(faults, str):
            faults = FaultPlan.parse(faults)
        self.injector = FaultInjector(faults, telemetry=self.telemetry)
        self.board = HealthBoard()
        for name in set(placement.path) | set(placement.backup.path):
            self.board.register(name, 1)
        self.injector.on_transition(self._on_transition)
        #: Conservation ledger: injected == emitted + sum(drops.values()).
        self.injected = 0
        self.emitted = 0
        self.drops: Dict[str, int] = {}
        self.failovers = 0

    # ------------------------------------------------------------ health
    def _on_transition(self, label: str, spec, state) -> None:
        if state.down and self.board.up(label):
            was_active = self.on_active_path
            self.board.mark_down(label, 0)
            if self.telemetry.enabled:
                self.telemetry.inc("placement.server_down")
            if label in self.placement.path and was_active:
                # The pre-planned disjoint standby takes over; by
                # construction it shares no server with the dead path.
                self.failovers += 1
                if self.telemetry.enabled:
                    self.telemetry.inc("placement.failover")

    @property
    def on_active_path(self) -> bool:
        """Whether the active placement is still fully healthy."""
        return all(self.board.up(name) for name in self.placement.path)

    @property
    def current_path(self) -> tuple:
        return (
            self.placement.path if self.on_active_path
            else self.placement.backup.path
        )

    def _account_drop(self, reason: str) -> None:
        self.drops[reason] = self.drops.get(reason, 0) + 1
        if self.telemetry.enabled:
            self.telemetry.inc(f"placement.drop.{reason}")

    # ---------------------------------------------------------- dataplane
    def process(self, pkt: Packet) -> Optional[Packet]:
        """One packet through whichever placement is currently healthy."""
        self.injected += 1
        use_backup = not self.on_active_path
        plane = self.backup if use_backup else self.active
        path = self.placement.backup.path if use_backup else self.placement.path

        if use_backup and not all(self.board.up(n) for n in path):
            # Both the active and the standby placement have casualties:
            # nothing left to run on, but the ledger still balances.
            self._account_drop("no_placement")
            return None

        # Health is sampled per server hop *before* the slice runs, so a
        # crash triggered by this packet strands it at that server (an
        # accounted casualty), and the next packet takes the backup.
        for name in path:
            state = self.injector.on_packet(name, float(self.injected))
            if state.down:
                self._account_drop("server_crash")
                return None

        out = plane.process(pkt)
        if out is None:
            self._account_drop("nf_drop")
            return None
        self.emitted += 1
        return out

    # ------------------------------------------------------- conservation
    def conservation_report(self) -> Dict[str, int]:
        """injected == emitted + drops; ``violation`` is the imbalance."""
        dropped = sum(self.drops.values())
        return {
            "injected": self.injected,
            "emitted": self.emitted,
            "dropped": dropped,
            "violation": self.injected - self.emitted - dropped,
            **{f"drop.{k}": v for k, v in sorted(self.drops.items())},
        }
