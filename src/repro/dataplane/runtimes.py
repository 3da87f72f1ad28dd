"""The per-core state machines of the simulated NFP server (§5).

:class:`~repro.dataplane.server.NFPServer` wires these together: an
:class:`_NFRuntimeSim` per NF instance (grouped per NF by
:class:`_RuntimeGroup`), a :class:`_MergerSim` per merger core, and one
:class:`FlightState` per packet in shared memory, which is also the
packet's Accumulating Table entry.  :class:`Sweeper` ages the AT and the
flight table.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Set, Tuple

from ..core.closures import CompiledGraph
from ..core.graph import ORIGINAL_VERSION
from ..faults import HealthState
from ..net.packet import Packet, forget_memos
from ..nfs.base import NetworkFunction
from ..sim import Core, Environment, Ring
from ..telemetry.tracer import SpanKind
from .flowsplit import _NO_ASSIGNMENT
from .merging import apply_merge_ops

if TYPE_CHECKING:
    from .server import NFPServer

__all__ = ["FlightState", "Sweeper"]


class FlightState:
    """Shared per-packet state: versions, drops, barriers, instance pins.

    ``assignment`` is the flow's RSS instance assignment (NF name ->
    instance index), computed once at classification time and read by
    every dispatch site -- so all copies/versions of one packet, and all
    packets of one flow, land on the same instance of each scaled NF.
    ``compiled`` is the install-time record the packet was classified
    under and finishes under; ``steps`` (NF name -> program step) and
    ``merged`` (final NFs notify a merger) are what completions read of it.

    The state is also the packet's Accumulating Table entry (§5.3): the
    merger's first notification sets ``arrived`` (version -> notified
    packet), ``notified``, ``nil`` and ``at_opened_us``, so a packet of
    a sequential graph never carries them.
    """

    __slots__ = ("versions", "dropped", "barriers", "assignment", "opened_us",
                 "pool_bytes", "copy_bytes", "compiled", "steps", "merged",
                 "arrived", "notified", "nil", "at_opened_us")

    def __init__(self, pkt: Packet, compiled: CompiledGraph,
                 assignment: Optional[Mapping[str, int]] = None,
                 opened_us: float = 0.0):
        self.compiled = compiled
        self.steps = compiled.by_nf
        self.merged = compiled.needs_merger
        self.versions: Dict[int, Packet] = {ORIGINAL_VERSION: pkt}
        self.dropped: Set[int] = set()
        self.barriers: Dict[Tuple[int, int], int] = {}
        self.assignment: Mapping[str, int] = (
            _NO_ASSIGNMENT if assignment is None else assignment
        )
        #: Classification time; ages the entry for the flight sweeper.
        self.opened_us = opened_us
        #: What the packet holds of the pool: its own slot (as sized at
        #: ingress) and one per copy made -- freed with this entry.
        self.pool_bytes = len(pkt.buf)
        self.copy_bytes: Tuple[int, ...] = ()


class Sweeper:
    """A lazy timeout sweeper over one table of aging entries.

    :meth:`arm` queues a tick ``interval`` after ``now`` unless one is
    already queued.  A tick expires every entry whose ``opened``
    attribute is at least ``timeout`` old (popped, then handed to
    ``expire(key, entry)``), then re-arms while the table holds
    anything and goes idle once it is empty.
    """

    __slots__ = ("env", "table", "interval", "timeout", "opened", "expire",
                 "armed")

    def __init__(self, env: Environment, table: Dict, interval: float,
                 timeout: float, opened: str,
                 expire: Callable[[object, object], None]):
        self.env = env
        self.table = table
        self.interval = interval
        self.timeout = timeout
        self.opened = attrgetter(opened)
        self.expire = expire
        self.armed = False

    def arm(self, now: float) -> None:
        if not self.armed:
            self.armed = True
            self.env.call_at(now + self.interval, self._tick)

    def _tick(self) -> None:
        now = self.env.now
        table, timeout, opened = self.table, self.timeout, self.opened
        expired = [key for key, entry in table.items()
                   if now - opened(entry) >= timeout]
        for key in expired:
            self.expire(key, table.pop(key))
        if table:
            self.env.call_later(self.interval, self._tick)
        else:
            self.armed = False


class _NFRuntimeSim:
    """One NF pinned to one core with its receive ring (§5.2).

    Batch-synchronous, like a DPDK poll loop: drain a burst, serve every
    packet, then forward the whole burst.  This preserves traffic
    burstiness through the chain, which is what makes per-stage queueing
    (and hence the parallelism win) behave like the real system.  It is
    a state machine over two scheduled calls per burst: the ring's
    wake-up (:meth:`_wake`, which serves the burst arithmetically on the
    core's own clock) and the burst's commit at the instant service ends.
    """

    def __init__(self, server: "NFPServer", nf: NetworkFunction, name: str,
                 core: Core):
        self.server = server
        self.nf = nf
        #: The NF's name in the graph (``nf.name`` is the instance label).
        self.name = name
        self.core = core
        self.rx = Ring(server.env, server.params.ring_capacity, name=f"{nf.name}.rx")
        #: Back-reference for the landing-time health check on fault runs
        #: and overflow accounting (see ``NFPServer._land`` /
        #: ``Ring.on_drop``).
        self.rx.owner = self
        #: True once a live scale-down retired this instance.
        self.retired = False
        self._service_metric = f"nf.{nf.name}.service_us"
        self.rx.wait(self._wake)

    def _wake(self, first: Packet) -> None:
        batch = self.rx.burst(first, self.server.params.batch_size)
        self._serve(batch, 0, self.server.env.now)

    def _serve(self, batch: List[Packet], index: int, now: float) -> None:
        """Serve ``batch[index:]`` from ``now``; commit when service ends.

        Without a fault injector the whole burst is served in this one
        call, each packet's instants read off :meth:`Core.reserve`.  An
        injector's ``on_packet`` fires failover transitions that must
        see the real clock, so with one attached each packet is its own
        scheduled call through this same body.
        """
        server = self.server
        params = server.params
        hub = server.telemetry
        enabled = hub.enabled  # fixed for the server's lifetime
        injector = server.injector
        nf = self.nf
        name = nf.name
        full = params.nf_runtime_us + params.nf_service(nf.KIND, nf.extra_cycles)
        reserve = self.core.reserve
        for index in range(index, len(batch)):
            pkt = batch[index]
            slow = 1.0
            if injector is not None:
                health = injector.on_packet(name, now)
                if health is HealthState.DEAD:
                    # Crash: the whole burst dies with the instance --
                    # earlier packets in it were serviced but their
                    # results are only committed after the burst, so a
                    # crash loses them too.  Abort everything, drain the
                    # ring, die (nothing re-arms).
                    for stranded in batch:
                        server.fault_abort(self, stranded, now)
                    self._drain_dead(now)
                    return
                if health is HealthState.HUNG:
                    # Wedge forever holding the rest of the burst: never
                    # re-arm.  The flight sweeper reclaims those packets
                    # and failover redirects the flows.
                    return
                if health is HealthState.SLOW:
                    slow = injector.slow_factor(name)
            if enabled:
                hub.span(SpanKind.NF_START, now, pkt.meta, name)
            service = (params.nf_runtime_us if pkt.nil else full) * slow
            now = reserve(now, service)
            if enabled:
                hub.observe(self._service_metric, service)
                hub.span(SpanKind.NF_END, now, pkt.meta, name, service)
            if injector is not None and index + 1 < len(batch):
                server.env.call_at(now, self._serve, batch, index + 1, now)
                return
        server.env.call_at(now, self._commit, batch, now)

    def _commit(self, batch: List[Packet], now: float) -> None:
        """Forward the served burst; ``now`` walks the per-packet instants.

        The NF handles the burst's live packets (not nil, still in
        flight) in one :meth:`~NetworkFunction.handle_burst` call, in
        ring order, after their parse memos took the NF's rule; each
        packet's verdict then goes through the barrier and forwarding
        bookkeeping.
        """
        server = self.server
        complete = server.nf_complete
        reserve = self.core.reserve
        flight = server._flight
        live = [pkt for pkt in batch
                if not pkt.nil and (pkt.meta.mid, pkt.meta.pid) in flight]
        verdicts = ()
        if live:
            # One runtime serves one graph node, and every graph
            # installed for it (a re-install, a degraded linearization)
            # carries that node's profile: any live packet's record
            # gives the rule.
            meta = live[0].meta
            rule = flight[meta.mid, meta.pid].compiled.forget[self.name]
            if rule:
                forget_memos(live, rule)
            verdicts = self.nf.handle_burst(live)
        pending = len(live)
        k = 0
        for pkt in batch:
            dropped = False
            if k < pending and live[k] is pkt:
                dropped = verdicts[k].dropped
                k += 1
            extra = complete(self, pkt, now, dropped)
            if extra > 0:
                now = reserve(now, extra)
        # Free at ``now``, which the forwarding charges put ahead of the
        # clock: the ring wakes us no earlier.
        self.rx.wait(self._wake, now)

    def _drain_dead(self, now: float) -> None:
        """Abort everything buffered in a crashed instance's ring."""
        while True:
            stranded = self.rx.get_batch(self.server.params.batch_size)
            if not stranded:
                return
            for pkt in stranded:
                self.server.fault_abort(self, pkt, now)


class _RuntimeGroup:
    """All instances of one (possibly scaled-out) NF.

    §7: "NFP can support NF scaling inside one server by allocating
    remaining CPU cores to new NF instances".  Flows are split across
    instances by a 5-tuple hash so per-flow state stays on one
    instance and packet order within a flow is preserved.
    """

    def __init__(self, name: str, kind: str):
        self.name = name
        #: NF kind, for the instances a restart or scale-up spawns.
        self.kind = kind
        self.instances: List[_NFRuntimeSim] = []
        #: Replacement runtimes spawned after crashes (label suffix).
        self.restarts = 0
        #: Label-generation counter for autoscale re-adds: a retired
        #: index re-grown later must not reuse its old label.
        self.generations = 0

    def index_of(self, label: str) -> Optional[int]:
        for i, runtime in enumerate(self.instances):
            if runtime.nf.name == label:
                return i
        return None

    @property
    def count(self) -> int:
        return len(self.instances)

    @property
    def rx_packets(self) -> int:
        return sum(r.nf.rx_packets for r in self.instances)


class _MergerSim:
    """One merger instance: AT accumulation plus MO execution (§5.3)."""

    def __init__(self, server: "NFPServer", index: int, core: Core):
        self.server = server
        self.index = index
        self.core = core
        self.rx = Ring(server.env, server.params.ring_capacity, name=f"merger{index}.rx")
        #: The dynamic Accumulating Table: (mid, pid) -> the packet's
        #: own flight state, which holds what has arrived.
        self.at: Dict[Tuple[int, int], FlightState] = {}
        self.at_high_watermark = 0
        self.merged = 0
        self.discarded = 0
        #: Entries reclaimed by the AT timeout sweeper.
        self.timed_out = 0
        timeout = server.params.at_timeout_us
        self.sweeper: Optional[Sweeper] = Sweeper(
            server.env, self.at, max(timeout / 4.0, 1.0), timeout,
            "at_opened_us", self._expire) if timeout > 0 else None
        #: The merger's span name, formatted once.
        self._label = f"merger{index}"
        self.rx.wait(self._wake)

    def _wake(self, first: Packet) -> None:
        """Drain a burst and merge it in this one call.

        Every notification's instant is read off the core, so AT state
        leads the clock by at most the burst's own core charges; the
        ring wakes the merger again no earlier than the burst's end.
        """
        server = self.server
        params = server.params
        reserve = self.core.reserve
        now = server.env.now
        batch = self.rx.burst(first, params.batch_size)
        for pkt in batch:
            done = self._accumulate(pkt, now)
            if done is not None:
                now = reserve(now, params.merger_base_us)
                self._finish(done, now)
        self.rx.wait(self._wake, now)

    def _accumulate(self, pkt: Packet, now: float) -> Optional[FlightState]:
        meta = pkt.meta
        hub = self.server.telemetry
        key = (meta.mid, meta.pid)
        state = self.at.get(key)
        if state is None:
            state = self.server._flight.get(key)
            if state is None:
                # The packet was already accounted (AT timeout, ring
                # overflow, flight sweep); a late notification must not
                # reopen an entry that can never complete.
                if hub.enabled:
                    hub.inc("merger.stale_notification")
                return None
            state.arrived = {}
            state.notified = 0
            state.nil = False
            state.at_opened_us = now
            at = self.at
            at[key] = state
            if len(at) > self.at_high_watermark:
                self.at_high_watermark = len(at)
            # Ticks anchor at ``now``, the instant the entry opened, not
            # at the clock the burst was woken on.
            if self.sweeper is not None:
                self.sweeper.arm(now)
            if hub.enabled:
                hub.inc("merger.at_insert")
                hub.span(SpanKind.MERGE_WAIT, now, meta, self._label)
        elif hub.enabled:
            hub.inc("merger.at_hit")
        state.notified += 1
        state.arrived[meta.version] = pkt
        state.nil = state.nil or pkt.nil
        if state.notified >= state.compiled.total_count:
            del self.at[key]
            return state
        return None

    def _finish(self, state: FlightState, now: float) -> None:
        hub = self.server.telemetry
        if state.nil:
            self.discarded += 1
            if hub.enabled:
                hub.inc("merger.discarded")
            self.server.record_drop(_drop_witness(state.arrived), now)
            return
        compiled = state.compiled
        merged = apply_merge_ops(state.arrived, compiled.merge_plan,
                                 telemetry=hub)
        delay = compiled.merge_delay_us
        if hub.enabled:
            hub.inc("merger.merged")
            # wait_us: AT entry opening -> last notification (rendezvous
            # wait); duration_us: the apply/bookkeeping latency itself.
            # Both ride on the event so stage rollups need no pairing.
            hub.span(SpanKind.MERGE_APPLY, now, merged.meta, self._label,
                     delay, {"wait_us": now - state.at_opened_us})
        self.merged += 1
        self.server.emit(merged, now, extra_delay=delay)

    def _expire(self, key: Tuple[int, int], state: FlightState) -> None:
        """Reclaim a stranded entry: merge what arrived, or account it.

        Missing branches are treated as nil notifications that will
        never come.  When version 1 and every merge source did arrive
        (and nothing collected is nil), the merge of the partial set is
        emitted -- the packet survives the fault.  Otherwise the packet
        is accounted as an ``at_timeout`` drop; either way the entry,
        and the packet's flight state, are reclaimed instead of leaking.
        """
        server = self.server
        hub = server.telemetry
        self.timed_out += 1
        hub.inc("merger.at_timeout")
        arrived = state.arrived
        compiled = state.compiled
        usable = (
            not state.nil
            and ORIGINAL_VERSION in arrived
            and all(op.src_version is None or op.src_version in arrived
                    for op in compiled.graph.merge_ops)
        )
        if usable:
            merged = apply_merge_ops(arrived, compiled.merge_plan,
                                     telemetry=hub)
            if merged is not None:
                hub.inc("merger.at_timeout_emit")
                # The degraded merge is still a merge: record it so
                # rollups and critical-path attribution see the (huge)
                # rendezvous wait the timeout exposed.
                hub.span(SpanKind.MERGE_APPLY, server.env.now, merged.meta,
                         name=self._label,
                         duration_us=server.params.merge_latency_us,
                         args={"wait_us":
                               server.env.now - state.at_opened_us,
                               "degraded": True})
                self.merged += 1
                server.emit(merged, server.env.now,
                            extra_delay=server.params.merge_latency_us)
                return
        server.account_drop(_drop_witness(arrived), "at_timeout", server.env.now)


def _drop_witness(arrived: Dict[int, Packet]) -> Optional[Packet]:
    """The packet recorded for a discarded AT entry.

    Version 1 when collected, else deterministically the lowest
    collected version number -- never dict insertion order, which
    varies with NF completion timing.
    """
    witness = arrived.get(ORIGINAL_VERSION)
    if witness is None and arrived:
        witness = arrived[min(arrived)]
    return witness
