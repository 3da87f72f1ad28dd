"""NF programming model: how network functions plug into NFP.

NFP "provides NFs with interfaces to access and modify packets, and an
NF runtime to drop or deliver packets after processing" (§5.4).  Here an
NF subclasses :class:`NetworkFunction` and implements ``process(pkt,
ctx)``, mutating the packet in place through the :mod:`repro.net` views
and signalling drops through the :class:`ProcessingContext`.  The NF
never forwards packets itself -- delivery is the runtime's job, keeping
parallelism transparent to NF authors.

The runtime serves packets a burst at a time, as a DPDK poll loop
drains its ring: :meth:`NetworkFunction.handle_burst` is
:meth:`~NetworkFunction.handle` over each packet in ring order, and an
NF may override it to share per-burst work (one cipher pass for every
payload) as long as each packet's result is the one ``handle`` gives.

A registry maps NF *kind* names (matching the action-table rows) to
implementations, so policies, profiles and code line up by name.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Type

from ..net.packet import Packet
from ..telemetry.hooks import NULL_HUB

__all__ = [
    "ProcessingContext",
    "NetworkFunction",
    "register_nf_class",
    "create_nf",
    "nf_class",
    "registered_kinds",
]


class ProcessingContext:
    """Per-packet side channel between an NF and its runtime.

    The only cross-cutting signal the paper's runtime needs is the drop
    intention (which becomes a nil packet toward the merger, §5.3).
    """

    __slots__ = ("dropped", "drop_reason")

    def __init__(self):
        self.dropped = False
        self.drop_reason: Optional[str] = None

    def drop(self, reason: str = "") -> None:
        """Convey a drop intention to the NF runtime."""
        self.dropped = True
        self.drop_reason = reason or None


class NetworkFunction:
    """Base class for all NFs.

    Subclasses set ``KIND`` (the action-table row name) and implement
    :meth:`process`.  Instances carry state (counters, tables, flow
    maps); the base class tracks the universal statistics.
    """

    #: Action-table kind; subclasses must override.
    KIND = ""

    def __init__(self, name: Optional[str] = None):
        if not self.KIND:
            raise TypeError(f"{type(self).__name__} does not define KIND")
        self.name = name or self.KIND
        self.rx_packets = 0
        self.dropped_packets = 0
        self.errors = 0
        #: Extra per-packet busy-loop cycles (the Fig. 9 complexity knob).
        self.extra_cycles = 0
        #: Telemetry hub; the disabled NULL_HUB unless a server wires one in.
        self.telemetry = NULL_HUB
        #: The counters :meth:`handle` bumps, named once.
        self._rx_metric = f"nf.{self.name}.rx"
        self._dropped_metric = f"nf.{self.name}.dropped"
        self._errors_metric = f"nf.{self.name}.errors"

    # ------------------------------------------------------------ NF logic
    def process(self, pkt: Packet, ctx: ProcessingContext) -> None:
        """Handle one packet; mutate it in place or ``ctx.drop()`` it."""
        raise NotImplementedError

    def handle(self, pkt: Packet) -> ProcessingContext:
        """Run :meth:`process` with bookkeeping; returns the context.

        A crashing NF is contained: the exception is recorded and the
        packet is dropped (a middlebox fault must not take down the
        dataplane), mirroring how the paper's per-container isolation
        limits the blast radius of a buggy NF.
        """
        ctx = ProcessingContext()
        self.rx_packets += 1
        had_error = False
        rec = pkt.recorder
        if rec is not None:
            rec.enter(self.name, self.KIND)
        try:
            self.process(pkt, ctx)
        except Exception as exc:  # noqa: BLE001 - fault isolation boundary
            self.errors += 1
            had_error = True
            ctx.drop(f"nf-error: {exc}")
        finally:
            if rec is not None:
                if ctx.dropped:
                    rec.record("drop", None, pkt.uid)
                rec.exit()
        if ctx.dropped:
            self.dropped_packets += 1
        hub = self.telemetry
        if hub.enabled:
            hub.inc(self._rx_metric)
            if ctx.dropped:
                hub.inc(self._dropped_metric)
            if had_error:
                hub.inc(self._errors_metric)
        return ctx

    def handle_burst(self, pkts: Sequence[Packet]) -> List[ProcessingContext]:
        """:meth:`handle` each packet of a burst, in order.

        The unit of the DPDK poll loop the NF runtime models: it drains
        a burst from the NF's ring and serves it whole.  An NF that can
        share work across independent packets (the VPN runs one cipher
        pass for the burst's payloads) overrides this; the contexts, the
        bytes and the recorder events must stay those of per-packet
        :meth:`handle`.
        """
        handle = self.handle
        return [handle(pkt) for pkt in pkts]

    # ------------------------------------------------------ state handover
    # Live membership change (autoscaling, §7 + Khalid & Akella) moves
    # flows between instances of a replicated NF.  A stateful NF must
    # hand its per-flow and cross-flow state over with them, or the new
    # owner processes packets against a blank table.  Defaults model a
    # stateless NF: nothing to move.

    def export_flow_state(self, flow_key: bytes) -> Optional[Any]:
        """Extract (and remove) this NF's state for one flow.

        ``flow_key`` is the flow's ``Packet.flow_key()``: 13 bytes,
        ``sip | dip | proto | sport | dport`` (decode it with
        :func:`~repro.net.packet.decode_flow_key`).  Returns an opaque blob for
        :meth:`import_flow_state` on the flow's new owner, or ``None``
        when there is nothing to move.  The export must *remove* the
        state locally -- after the handover exactly one instance owns it.
        """
        return None

    def import_flow_state(self, flow_key: bytes, state: Any) -> None:
        """Install state exported by a peer instance for ``flow_key``."""

    def export_shared_state(self) -> Optional[Any]:
        """Snapshot cross-flow state a *new* instance must not start
        blank with (e.g. the VPN AH sequence, which must never regress
        or repeat).  Non-destructive; ``None`` when stateless."""
        return None

    def import_shared_state(self, state: Any) -> None:
        """Merge a peer's shared-state snapshot into this instance."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


_REGISTRY: Dict[str, Type[NetworkFunction]] = {}


def register_nf_class(cls: Type[NetworkFunction]) -> Type[NetworkFunction]:
    """Class decorator: register an NF implementation under its KIND."""
    if not issubclass(cls, NetworkFunction):
        raise TypeError("only NetworkFunction subclasses can be registered")
    if not cls.KIND:
        raise ValueError(f"{cls.__name__} must define KIND")
    kind = cls.KIND.lower()
    if kind in _REGISTRY and _REGISTRY[kind] is not cls:
        raise ValueError(f"NF kind {kind!r} already registered")
    _REGISTRY[kind] = cls
    return cls


def nf_class(kind: str) -> Type[NetworkFunction]:
    """Look up the implementation class for an NF kind."""
    try:
        return _REGISTRY[kind.lower()]
    except KeyError:
        raise KeyError(
            f"no NF implementation registered for kind {kind!r}; "
            f"known kinds: {sorted(_REGISTRY)}"
        ) from None


def create_nf(kind: str, name: Optional[str] = None, **kwargs: Any) -> NetworkFunction:
    """Instantiate an NF by kind name."""
    return nf_class(kind)(name=name, **kwargs)


def registered_kinds() -> list:
    return sorted(_REGISTRY)
