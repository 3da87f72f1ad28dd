"""The simulated NFP server: classifier, NF runtimes, mergers (§5).

This is the timed counterpart of :mod:`repro.dataplane.functional`: the
same packets, NF objects and merge code, but every step costs calibrated
time on a pinned core inside the DES -- so latency, throughput and loss
emerge from queueing exactly as on the paper's testbed.

Topology (Fig. 3)::

    NIC rx --> [classifier core] --> per-NF rx rings --> [NF cores]
                 |  CT lookup, metadata,                   |  NF logic +
                 |  stage-0 copies                         |  FT actions
                 v                                         v
              flight state (shared memory) <--- version barriers
                                                           |
               [merger cores] <--- merger agent hash ------+
                 |  AT accumulation, MOs
                 v
               NIC tx --> recorded latency / rate

Execution rules:

* every packet reference delivery costs ``ring_hop_us`` on the sending
  core plus ``batch_wait_us`` of pure pipeline latency;
* an NF runtime polls its ring in bursts of ``batch_size``;
* version barriers: refs advance to the next stage once all same-stage
  NFs of that version finished; the completing runtime executes the
  copy/distribute actions (§5.2);
* drops become nil packets that flow through the remaining graph so the
  merger's count completes naturally (§5.3);
* the merger agent hashes the immutable PID to pick a merger instance.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from ..core.closures import CompiledGraph, instance_labels
from ..core.graph import ORIGINAL_VERSION
from ..core.orchestrator import DeployedGraph
from ..core.tables import build_tables
from ..faults import FaultInjector, FaultKind, HealthBoard, HealthState, base_name
from ..faults.recovery import linearize
from ..net.packet import Packet, PacketMeta
from ..nfs.base import NetworkFunction, create_nf
from ..sim import Core, Environment, NicEgress, PacketPool, Ring, SimParams
from ..sim.engine import Event
from ..telemetry.hooks import NULL_HUB, TelemetryHub
from ..telemetry.tracer import SpanKind
from .chaining import ChainingManager
from .flowsplit import FlowCache, FlowDecision, assign_instances, packet_key
from .merging import apply_merge_ops

__all__ = ["NFPServer", "FlightState"]

#: Shared empty assignment for packets of unscaled graphs.
_NO_ASSIGNMENT: Dict[str, int] = {}


class FlightState:
    """Shared per-packet state: versions, drops, barriers, instance pins.

    ``assignment`` is the flow's RSS instance assignment (NF name ->
    instance index), computed once at classification time and read by
    every dispatch site -- so all copies/versions of one packet, and all
    packets of one flow, land on the same instance of each scaled NF.
    ``compiled`` is the install-time record the packet was classified
    under and finishes under; ``steps`` (NF name -> program step) and
    ``merged`` (final NFs notify a merger) are what completions read of it.
    """

    __slots__ = ("versions", "dropped", "barriers", "assignment", "opened_us",
                 "pool_bytes", "copy_bytes", "compiled", "steps", "merged")

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
        #: Back-reference for the landing-time health check and overflow
        #: accounting (see ``NFPServer._land`` / ``Ring.on_drop``).
        self.rx.owner = self
        #: True once a live scale-down retired this instance.
        self.retired = False
        self._label = f"nf:{nf.name}"
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
            pkt.stamp(self._label, now)
            if enabled:
                hub.observe(self._service_metric, service)
                hub.span(SpanKind.NF_END, now, pkt.meta, name, service)
            if injector is not None and index + 1 < len(batch):
                server.env.call_at(now, self._serve, batch, index + 1, now)
                return
        server.env.call_at(now, self._commit, batch, now)

    def _commit(self, batch: List[Packet], now: float) -> None:
        """Forward the served burst; ``now`` walks the per-packet instants."""
        complete = self.server.nf_complete
        reserve = self.core.reserve
        for pkt in batch:
            extra = complete(self, pkt, now)
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
        #: The dynamic Accumulating Table: (mid, pid) -> state.
        self.at: Dict[Tuple[int, int], Dict] = {}
        self.at_high_watermark = 0
        self.merged = 0
        self.discarded = 0
        #: Entries reclaimed by the AT timeout sweeper.
        self.timed_out = 0
        self._sweeping = False
        self._sweep_interval = max(server.params.at_timeout_us / 4.0, 1.0)
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
            now = reserve(now, params.merger_per_copy_us)
            done = self._accumulate(pkt, now)
            if done is not None:
                now = reserve(now, params.merger_base_us)
                self._finish(done, now)
        self.rx.wait(self._wake, now)

    def _accumulate(self, pkt: Packet, now: float):
        meta = pkt.meta
        hub = self.server.telemetry
        key = (meta.mid, meta.pid)
        entry = self.at.get(key)
        if entry is None:
            state = self.server._flight.get(key)
            if state is None:
                # The packet was already accounted (AT timeout, ring
                # overflow, flight sweep); a late notification must not
                # reopen an entry that can never complete.
                if hub.enabled:
                    hub.inc("merger.stale_notification")
                return None
            entry = {"count": 0, "versions": {}, "nil": False,
                     "opened_us": now, "compiled": state.compiled}
            self.at[key] = entry
            self.at_high_watermark = max(self.at_high_watermark, len(self.at))
            self._maybe_sweep(now)
            if hub.enabled:
                hub.inc("merger.at_insert")
                hub.span(SpanKind.MERGE_WAIT, now, meta, self._label)
        elif hub.enabled:
            hub.inc("merger.at_hit")
        entry["count"] += 1
        entry["versions"][meta.version] = pkt
        entry["nil"] = entry["nil"] or pkt.nil
        if entry["count"] >= entry["compiled"].total_count:
            del self.at[key]
            return entry
        return None

    def _finish(self, entry: Dict, now: float) -> None:
        hub = self.server.telemetry
        if entry["nil"]:
            self.discarded += 1
            if hub.enabled:
                hub.inc("merger.discarded")
            self.server.record_drop(_drop_witness(entry), now)
            return
        compiled = entry["compiled"]
        merged = apply_merge_ops(entry["versions"], compiled.merge_plan,
                                 telemetry=hub)
        merged.stamp("merged", now)
        delay = compiled.merge_delay_us
        if hub.enabled:
            hub.inc("merger.merged")
            # wait_us: AT entry opening -> last notification (rendezvous
            # wait); duration_us: the apply/bookkeeping latency itself.
            # Both ride on the event so stage rollups need no pairing.
            hub.span(SpanKind.MERGE_APPLY, now, merged.meta, self._label,
                     delay, {"wait_us": now - entry["opened_us"]})
        self.merged += 1
        self.server.emit(merged, now, extra_delay=delay)

    # -------------------------------------------------- AT entry timeouts
    def _maybe_sweep(self, now: float) -> None:
        """Arm the lazy timeout sweeper (idle whenever the AT is empty).

        Its ticks are anchored at ``now``, the instant the entry opened,
        not at the clock the burst was woken on.
        """
        if self._sweeping or self.server.params.at_timeout_us <= 0:
            return
        self._sweeping = True
        self.server.env.call_at(now + self._sweep_interval, self._sweep)

    def _sweep(self) -> None:
        server = self.server
        timeout = server.params.at_timeout_us
        now = server.env.now
        expired = [key for key, entry in self.at.items()
                   if now - entry["opened_us"] >= timeout]
        for key in expired:
            self._expire(key, self.at.pop(key))
        if self.at:
            server.env.call_later(self._sweep_interval, self._sweep)
        else:
            self._sweeping = False

    def _expire(self, key: Tuple[int, int], entry: Dict) -> None:
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
        versions = entry["versions"]
        compiled = entry["compiled"]
        usable = (
            not entry["nil"]
            and ORIGINAL_VERSION in versions
            and all(op.src_version is None or op.src_version in versions
                    for op in compiled.graph.merge_ops)
        )
        if usable:
            merged = apply_merge_ops(versions, compiled.merge_plan,
                                     telemetry=hub)
            if merged is not None:
                hub.inc("merger.at_timeout_emit")
                merged.stamp("merged-degraded", server.env.now)
                # The degraded merge is still a merge: record it so
                # rollups and critical-path attribution see the (huge)
                # rendezvous wait the timeout exposed.
                hub.span(SpanKind.MERGE_APPLY, server.env.now, merged.meta,
                         name=self._label,
                         duration_us=server.params.merge_latency_us,
                         args={"wait_us":
                               server.env.now - entry["opened_us"],
                               "degraded": True})
                self.merged += 1
                server.emit(merged, server.env.now,
                            extra_delay=server.params.merge_latency_us)
                return
        server.account_drop(_drop_witness(entry), "at_timeout", server.env.now)


def _drop_witness(entry: Dict) -> Optional[Packet]:
    """The packet recorded for a discarded AT entry.

    Version 1 when collected, else deterministically the lowest
    collected version number -- never dict insertion order, which
    varies with NF completion timing.
    """
    versions = entry["versions"]
    witness = versions.get(ORIGINAL_VERSION)
    if witness is None and versions:
        witness = versions[min(versions)]
    return witness


class NFPServer(NicEgress):
    """A full simulated NFP box processing deployed service graphs."""

    def __init__(
        self,
        env: Environment,
        params: SimParams,
        num_mergers: int = 1,
        nf_factory: Optional[Callable[[str, str], NetworkFunction]] = None,
        telemetry: Optional[TelemetryHub] = None,
        flow_cache_size: int = 0,
        injector: Optional[FaultInjector] = None,
    ):
        super().__init__(env, params)
        #: Optional fault injector; when attached, instance health is
        #: consulted on every served/delivered packet, transitions drive
        #: failover/degradation, and the flight sweeper guarantees every
        #: injected packet is eventually emitted or reason-accounted.
        self.injector = injector
        if injector is not None:
            injector.on_transition(self._on_health_transition)
        #: Telemetry hub shared by the classifier, runtimes, mergers and
        #: NFs; the disabled NULL_HUB by default (one branch per call site).
        self.telemetry = telemetry if telemetry is not None else NULL_HUB
        self.chaining = ChainingManager()
        self.chaining.on_install(self._attach_merge_delay)
        #: The classifier's LRU flow cache (``flow_cache_size`` > 0
        #: enables it).  Off by default: the Table 4 calibration anchors
        #: are stated for the uncached classifier path.
        self.flow_cache: Optional[FlowCache] = None
        if flow_cache_size > 0:
            self.flow_cache = FlowCache(flow_cache_size)
            self.chaining.on_install(lambda _record: self.flow_cache.invalidate())
        self.pool = PacketPool(capacity=1 << 16)

        self._cores = 0
        self.classifier_core = self._new_core("classifier")
        self.ingress = Ring(env, params.ring_capacity, name="classifier.rx")
        self.ingress.on_drop = self._ingress_overflow
        #: Packets the classifier holds between lookup and fan-out: in
        #: neither the ingress ring nor ``_flight``, yet in the pipeline.
        self._classifying = 0
        self.ingress.wait(self._classifier_wake)

        self.num_mergers = num_mergers
        self.mergers: List[_MergerSim] = [
            _MergerSim(self, i, self._new_core(f"merger{i}")) for i in range(num_mergers)
        ]

        self._nf_factory = nf_factory or (lambda kind, name: create_nf(kind, name=name))
        self.runtimes: Dict[str, _RuntimeGroup] = {}
        self.nfs: Dict[str, NetworkFunction] = {}
        #: NF name -> instance count for replicated groups only (the
        #: RSS assignment domain); empty on unscaled servers.
        self._scaled_counts: Dict[str, int] = {}

        self._flight: Dict[Tuple[int, int], FlightState] = {}
        self._next_pid = 0

        #: Optional egress hook: when set, finished packets are handed to
        #: it (after NIC tx) instead of being recorded locally -- used to
        #: chain servers into a multi-server pipeline.
        self.on_emit: Optional[Callable[[Packet], None]] = None

        #: When True, every packet records (label, timestamp) checkpoints
        #: usable by repro.eval.breakdown.
        self.record_timeline = False

        # Conservation ledger: every injected packet must end up in
        # ``emitted`` or in exactly one reason bucket of ``drops``.
        self.injected = 0
        self.emitted = 0
        self.drops: Dict[str, int] = {}

        # Failover state.
        self.health = HealthBoard()
        #: Cached-flow reassignments performed by failover so far.
        self.reassigned_flows = 0
        #: original MID -> degraded sequential MID.
        self.degraded_mids: Dict[int, int] = {}
        self._flight_sweeping = False
        self._flight_sweep_interval = max(params.at_timeout_us / 2.0, 1.0)

        # Live membership (autoscaling) state.
        #: Classifier hold gate: a pending event while a membership
        #: change drains the pipeline; None when traffic flows freely.
        self._hold: Optional[Event] = None
        #: Flow keys seen by the classifier, kept only when a membership
        #: controller enabled it (state handover needs *every* live
        #: flow, not just the cached ones).
        self.flow_directory: Optional[Set[bytes]] = None
        #: Completed membership changes, in order (dicts; see _rescale).
        self.scale_events: List[Dict] = []
        #: Flows whose instance pin changed across all rescales.
        self.moved_flows = 0
        #: Moved flows that actually carried NF state across.
        self.handover_flows = 0

        for merger in self.mergers:
            merger.rx.on_drop = self._merger_overflow

    # ------------------------------------------------------------- wiring
    def _new_core(self, name: str) -> Core:
        core = Core(self.env, self._cores, name=name)
        self._cores += 1
        return core

    @property
    def cores_used(self) -> int:
        return self._cores

    def deploy(
        self,
        deployed: DeployedGraph,
        scale: Optional[Dict[str, int]] = None,
    ) -> None:
        """Install a deployed graph: tables plus runtime(s) per NF.

        ``scale`` maps NF names to instance counts (default 1); scaled
        NFs get one pinned core per instance and flows are RSS-split
        across them (§7's in-server scaling).  When the deployment
        itself carries a :class:`~repro.core.scaling.ScaledGraph` (the
        orchestrator's ``deploy(scale=...)`` path), its counts are used
        unless an explicit ``scale`` overrides them.
        """
        if scale is None:
            scale = deployed.scale
        self.chaining.install(deployed.tables)
        for node in deployed.graph.nodes():
            name = node.name
            if name in self.runtimes:
                raise ValueError(f"NF instance {name!r} already running")
            count = scale.get(name, 1)
            if count < 1:
                raise ValueError(f"scale for {name!r} must be >= 1")
            group = self.runtimes[name] = _RuntimeGroup(name, node.kind)
            for label in instance_labels(name, count):
                group.instances.append(self._spawn_runtime(group, label))
            self.health.register(name, count)
            if count > 1:
                self._scaled_counts[name] = count

    def _attach_merge_delay(self, compiled: CompiledGraph) -> None:
        """Install listener: rendezvous latency (AT bookkeeping plus the
        copy-collection penalty, §6.3.2), the record's one ``SimParams``
        fact; charged as pipeline latency, not core time."""
        graph, params = compiled.graph, self.params
        compiled.merge_delay_us = params.merge_latency_us + (
            (graph.num_versions - 1) * params.copy_merge_latency_us
        ) + graph.total_count * params.merge_per_notification_us + len(
            graph.merge_ops
        ) * params.merge_per_mo_us

    def _spawn_runtime(self, group: _RuntimeGroup, label: str) -> _NFRuntimeSim:
        """One NF instance on a fresh core, overflow hook attached."""
        nf = self._nf_factory(group.kind, label)
        nf.telemetry = self.telemetry
        self.nfs[label] = nf
        runtime = _NFRuntimeSim(self, nf, group.name, self._new_core(label))
        runtime.rx.on_drop = lambda pkt, rt=runtime: self._nf_ring_overflow(rt, pkt)
        return runtime

    # ------------------------------------------------------------ ingress
    def inject(self, pkt: Packet) -> None:
        """Receive a packet on the NIC; reaches the classifier after the
        driver cost."""
        if pkt.ingress_us < 0.0:
            pkt.ingress_us = self.env.now
        self.injected += 1
        self.pool.alloc(len(pkt.buf))
        if self.record_timeline and pkt.timeline is None:
            pkt.timeline = []
        pkt.stamp("nic-rx", pkt.ingress_us)
        # Overflow -> _ingress_overflow.
        self.env.call_later(self.params.nic_io_us, self.ingress.try_put, pkt)

    def _ingress_overflow(self, pkt: Packet) -> None:
        self.pool.free(len(pkt.buf))
        self.lost += 1
        self.telemetry.inc("drops.ingress_full")
        self.telemetry.inc("ring.overflow_drop")
        self._count_drop("ingress_full")

    def _classifier_wake(self, first: Packet) -> None:
        """The ingress ring produced a packet: classify a burst.

        Two scheduled calls per burst, like an NF runtime: this one
        (lookup, every instant read off the classifier core) and
        :meth:`_fan_out` at the instant the lookups end.
        """
        if self._hold is not None:
            # Membership change in progress: park (holding this packet
            # unclassified) until the drain barrier lifts, so no packet
            # observes half-moved NF state.  Later arrivals buffer in
            # the ingress ring; its overflow path stays attributed
            # (ingress_full).
            self._hold.callbacks.append(
                lambda _event: self._classifier_wake(first))
            return
        params = self.params
        cache = self.flow_cache
        hub = self.telemetry
        reserve = self.classifier_core.reserve
        now = self.env.now
        batch = self.ingress.burst(first, params.batch_size)
        self._classifying = len(batch)
        work = []
        directory = self.flow_directory
        for pkt in batch:
            key = packet_key(pkt)
            if key is not None and directory is not None:
                directory.add(key)
            decision = None
            if cache is not None:
                if key is None:
                    cache.bypasses += 1
                    if hub.enabled:
                        hub.inc("classifier.cache_bypass")
                else:
                    decision = cache.get(key)
            if decision is not None:
                # Hit: the memoized CT match + fan-out decision is
                # reused; only the hash + metadata stamp cost remains.
                if hub.enabled:
                    hub.inc("classifier.cache_hit")
                now = reserve(now, params.classifier_cache_hit_us)
                work.append((pkt, decision))
                continue
            entry = self.chaining.classify(key)
            if entry is None:
                self.pool.free(len(pkt.buf))
                self.lost += 1
                self._count_drop("no_match")
                hub.inc("drops.no_match")
                continue
            compiled = self.chaining.compiled_for(entry.mid)
            # Tagging is for the merger; a sequential graph only forwards.
            now = reserve(now, params.classifier_tag_us
                          if compiled.needs_merger
                          else params.classifier_fwd_us)
            # The health view is a dict over every runtime group: built
            # only when something is replicated and will read it.
            scaled = self._scaled_counts
            decision = FlowDecision(entry, assign_instances(
                key, scaled, healthy=self.health.view() if scaled else None,
                telemetry=hub))
            if cache is not None and key is not None:
                if hub.enabled:
                    hub.inc("classifier.cache_miss")
                if cache.put(key, decision) and hub.enabled:
                    hub.inc("classifier.cache_evict")
            work.append((pkt, decision))
        self.env.call_at(now, self._fan_out, work, now)

    def _fan_out(self, work: List[Tuple[Packet, FlowDecision]],
                 now: float) -> None:
        """Tag and distribute the looked-up burst; ``now`` walks it."""
        reserve = self.classifier_core.reserve
        for pkt, decision in work:
            pkt.stamp("classified", now)
            extra = self._classify_one(pkt, decision, now)
            if extra > 0:
                now = reserve(now, extra)
        self._classifying = 0
        self.ingress.wait(self._classifier_wake, now)

    def _classify_one(self, pkt: Packet, decision: FlowDecision,
                      now: float) -> float:
        """Tag metadata, run CT actions; returns extra core time spent."""
        mid = decision.ct_entry.mid
        compiled = self.chaining.compiled_for(mid)
        pid = self._next_pid = (self._next_pid + 1) % (1 << 40)
        pkt.meta = PacketMeta(mid=mid, pid=pid, version=ORIGINAL_VERSION)
        state = FlightState(pkt, compiled, decision.assignment, now)
        self._flight[(mid, pid)] = state
        self._maybe_sweep_flight(now)

        hub = self.telemetry
        if hub.enabled:
            hub.inc("classifier.packets")
            hub.span(SpanKind.CLASSIFY, now, pkt.meta, "classifier", 0.0,
                     {"ingress_us": pkt.ingress_us})

        extra = 0.0
        for copy in compiled.program[0][0]:
            extra += self._make_copy(state, pkt, copy, now)
        # Distribute each version to its stage-0 NFs.
        hop = self.params.ring_hop_us
        versions = state.versions
        for version, name in compiled.stage0:
            self._post(self._ring_for(name, state), versions[version], now)
            extra += hop
        return extra

    def _ring_for(self, name: str, state: FlightState) -> Ring:
        """The rx ring this packet's flow is pinned to for NF ``name``."""
        instances = self.runtimes[name].instances
        if len(instances) == 1:
            return instances[0].rx
        return instances[state.assignment.get(name, 0) % len(instances)].rx

    # ----------------------------------------------------- copy machinery
    def _make_copy(self, state: FlightState, base: Packet, copy_spec,
                   now: float) -> float:
        """Add ``copy_spec``'s version of ``base`` to the packet's flight
        state; returns the core time the copy cost."""
        new_pkt = state.versions[copy_spec.version] = copy_spec.make(base)
        if new_pkt.nil:
            return 0.0
        nbytes = len(new_pkt.buf)
        self.pool.alloc(nbytes, is_copy=True)
        state.copy_bytes += (nbytes,)
        cost = self.params.copy_cost_us(nbytes)
        hub = self.telemetry
        if hub.enabled:
            # OP#2 header-only vs OP#1 full copies (§4.2).
            kind, metric = (("header", "copy.header") if copy_spec.header_only
                            else ("full", "copy.full"))
            hub.inc(metric)
            hub.span(SpanKind.COPY, now, new_pkt.meta, kind, cost,
                     {"bytes": nbytes})
        return cost

    def _release(self, state: FlightState) -> None:
        """Return a finished packet's slots (its own + its copies')."""
        pool = self.pool
        pool.free(state.pool_bytes)
        for nbytes in state.copy_bytes:
            pool.free(nbytes, is_copy=True)

    # ------------------------------------------------------ completion hook
    def nf_complete(self, runtime: _NFRuntimeSim, pkt: Packet, now: float,
                    faulted: bool = False) -> float:
        """Bookkeeping after an NF finishes one packet, at instant ``now``.

        Runs the NF's functional logic result through the barrier state
        machine and executes FT actions.  Returns extra core time the
        runtime must charge (ring hops + copies it performed).  ``now``
        is the packet's own instant in its burst's commit phase, at or
        ahead of the clock: spans, stamps and deliveries are placed at
        it, not at ``env.now``.

        ``faulted`` marks a packet the NF never actually served (crash
        abort, ring overflow): its version is recorded as dropped and
        only the barrier/forwarding machinery runs, so the resulting nil
        reaches the merger and the AT entry completes instead of
        stranding.
        """
        meta = pkt.meta
        state = self._flight.get((meta.mid, meta.pid))
        if state is None:
            return 0.0
        key, (last, fan_in, copies, targets) = state.steps[runtime.name]
        version = key[1]

        if faulted:
            state.dropped.add(version)
        elif not pkt.nil:
            ctx = runtime.nf.handle(pkt)
            if ctx.dropped:
                state.dropped.add(version)

        extra = 0.0
        hop = self.params.ring_hop_us
        if last:
            # Final stage for this version: notify the merger the PID
            # hash picks (or output directly for a sequential graph).
            out_pkt = self._version_packet(state, version)
            if state.merged:
                self._post(self.mergers[meta.pid % self.num_mergers].rx,
                           out_pkt, now, self.params.merger_hop_latency_us)
                extra += hop
            elif out_pkt.nil:
                self.record_drop(out_pkt, now)
            else:
                self.emit(out_pkt, now)
            return extra

        # Mid-graph: version barrier, counted only when it has one.
        if fan_in > 1:
            barriers = state.barriers
            remaining = barriers[key] = barriers.get(key, fan_in) - 1
            if remaining > 0:
                return 0.0

        # Barrier complete: this runtime makes the copies due at the
        # next stage's entry and forwards to that stage.
        fwd_pkt = self._version_packet(state, version)
        for copy, names in copies:
            extra += self._make_copy(state, fwd_pkt, copy, now)
            new_pkt = state.versions[copy.version]
            for name in names:
                self._post(self._ring_for(name, state), new_pkt, now)
                extra += hop
        for name in targets:
            self._post(self._ring_for(name, state), fwd_pkt, now)
            extra += hop
        return extra

    def _version_packet(self, state: FlightState, version: int) -> Packet:
        pkt = state.versions[version]
        if version in state.dropped and not pkt.nil:
            pkt = pkt.make_nil()
            state.versions[version] = pkt
        return pkt

    # ------------------------------------------------------------- egress
    def _post(self, ring: Ring, pkt: Packet, now: float,
              delay: Optional[float] = None) -> None:
        """Send the reference at ``now``; it lands (:meth:`_land`) after
        the pipeline's batch latency (or ``delay``)."""
        wait = self.params.batch_wait_us if delay is None else delay
        hub = self.telemetry
        if hub.enabled:
            hub.inc("ring.hops")
            hub.span(SpanKind.ENQUEUE, now, pkt.meta, ring.name)
        self.env.call_at(now + wait, self._land, ring, pkt)

    def _land(self, ring: Ring, pkt: Packet,
              retries: Optional[int] = None) -> None:
        """Land a posted reference: divert, retry while full, or put.

        On arrival (``retries`` is None) with a fault injector attached,
        a reference to a dead or hung instance is diverted to
        :meth:`fault_abort` instead of piling up in a ring nobody drains.
        A full ring is retried ``ring_retry_limit`` times,
        ``ring_retry_backoff_us`` apart (default 0: fail-fast ``rte_ring``
        semantics), the divert not asked again; the final failure lands
        in the ring's ``on_drop`` hook, which accounts the loss and
        completes the merger's AT entry.
        """
        if retries is None:
            injector = self.injector
            if injector is not None:
                owner = ring.owner
                if owner is not None and injector.is_down(owner.nf.name):
                    self.fault_abort(owner, pkt, self.env.now)
                    return
            retries = self.params.ring_retry_limit
        if retries > 0 and ring.is_full:
            hub = self.telemetry
            if hub.enabled:
                hub.inc("ring.retry")
            self.env.call_later(self.params.ring_retry_backoff_us,
                                self._land, ring, pkt, retries - 1)
            return
        ring.try_put(pkt)  # a reject -> the ring's on_drop hook

    # ----------------------------------------------- overflow & fault paths
    def _nf_ring_overflow(self, runtime: _NFRuntimeSim, pkt: Packet) -> None:
        """An NF rx ring rejected a delivery: account it, don't strand it.

        The packet's version is recorded as dropped and pushed through
        the barrier machinery as if the NF had completed it -- the
        resulting nil flows downstream and the merger's AT entry
        completes with a nil version instead of waiting forever for a
        notification that can never arrive.
        """
        self.lost += 1
        hub = self.telemetry
        if hub.enabled:
            hub.inc("drops.ring_full")
            hub.inc("ring.overflow_drop")
        self.fault_abort(runtime, pkt, self.env.now)

    def _merger_overflow(self, pkt: Packet) -> None:
        """A merger rx ring rejected a notification.

        The AT entry (if any) is now short one notification; the AT
        timeout sweeper reclaims it.  If no entry exists yet, the flight
        sweeper catches the packet (fault runs) or the loss stays a
        plain ``lost`` count (the paper's overload semantics).
        """
        self.lost += 1
        hub = self.telemetry
        if hub.enabled:
            hub.inc("drops.ring_full")
            hub.inc("ring.overflow_drop")

    def fault_abort(self, runtime: _NFRuntimeSim, pkt: Packet,
                    now: float) -> None:
        """Abort a packet an instance will never serve (crash/overflow).

        Reuses :meth:`nf_complete` with ``faulted=True``: the version is
        nil'ed and barrier/forwarding bookkeeping runs, so downstream
        stages and the merger account the packet naturally.  Stale
        references (flight already reclaimed) are ignored.
        """
        meta = pkt.meta
        if meta is None or (meta.mid, meta.pid) not in self._flight:
            return
        self.telemetry.inc("faults.aborted_packets")
        self.nf_complete(runtime, pkt, now, faulted=True)

    def emit(self, pkt: Packet, now: float, extra_delay: float = 0.0) -> None:
        """Send a packet finished at ``now`` out of the NIC; record metrics."""
        if pkt.meta is not None:
            popped = self._flight.pop((pkt.meta.mid, pkt.meta.pid), None)
            if popped is not None:
                self._release(popped)
            elif self.injector is not None:
                # Already accounted by a timeout/failover path; a second
                # emission would double-count the packet.
                self.telemetry.inc("tx.stale")
                return
        self.emitted += 1
        # The merge-latency and driver legs are one scheduled call, their
        # sum associated as the two separate legs added it; the wire is
        # claimed at the model time the driver leg ends.
        self.env.call_at((now + extra_delay) + self.params.nic_io_us,
                         self._tx_wire, pkt)

    def _tx_done(self, pkt: Packet) -> None:
        pkt.stamp("nic-tx", self.env.now)
        hub = self.telemetry
        if hub.enabled:
            hub.inc("tx.packets")
            hub.span(SpanKind.OUTPUT, self.env.now, pkt.meta, "nic-tx")
        if self.on_emit is not None:
            self.on_emit(pkt)
            return
        latency_us = self.env.now - pkt.ingress_us
        if hub.enabled:
            hub.observe("latency_us", latency_us)
        self.latency.record(latency_us)
        self.rate.record_delivery(self.env.now)
        if self.keep_packets:
            self.emitted_packets.append(pkt)

    def record_drop(self, pkt: Optional[Packet], now: float) -> None:
        """An NF dropped the packet (nil reached the end of its graph)."""
        if self.account_drop(pkt, "nil", now):
            self.nil_dropped += 1

    def _count_drop(self, reason: str) -> None:
        self.drops[reason] = self.drops.get(reason, 0) + 1

    def account_drop(self, pkt: Optional[Packet], reason: str,
                     now: float) -> bool:
        """Reason-tag a packet dropped at ``now`` exactly once.

        Pops the packet's flight state; when the state is already gone
        (the packet was emitted or accounted by another path) nothing is
        counted -- this is what makes the conservation ledger immune to
        races between timeouts, failover and late notifications.
        Packets without metadata (never classified) count directly.
        """
        hub = self.telemetry
        if pkt is not None and pkt.meta is not None:
            popped = self._flight.pop((pkt.meta.mid, pkt.meta.pid), None)
            if popped is None:
                if hub.enabled:
                    hub.inc("drops.stale")
                return False
            self._release(popped)
        self._count_drop(reason)
        if hub.enabled:
            hub.inc(f"drops.{reason}")
            if pkt is not None:
                hub.span(SpanKind.DROP, now, pkt.meta, reason)
        return True

    def conservation_report(self) -> Dict[str, object]:
        """The packet ledger: injected == emitted + sum(drops) when clean.

        ``unaccounted`` > 0 after a drained run means packets were
        silently lost -- the invariant fault-mode fuzzing gates on.
        """
        accounted = self.emitted + sum(self.drops.values())
        return {
            "injected": self.injected,
            "emitted": self.emitted,
            "drops": dict(self.drops),
            "unaccounted": self.injected - accounted,
            "at_depth": sum(len(m.at) for m in self.mergers),
            "flight_depth": len(self._flight),
        }

    # ------------------------------------------------- failover & recovery
    def _on_health_transition(self, label: str, spec, state: HealthState) -> None:
        """Injector callback: apply failover / degradation / pressure."""
        if spec is not None and spec.kind is FaultKind.RING_PRESSURE:
            name = base_name(label)
            group = self.runtimes.get(name)
            if group is not None:
                index = group.index_of(label)
                if index is not None:
                    group.instances[index].rx.capacity = spec.ring_capacity
            return
        if not state.down:
            return
        name = base_name(label)
        group = self.runtimes.get(name)
        if group is None:
            return
        index = group.index_of(label)
        if index is None:
            return
        hub = self.telemetry
        hub.inc("failover.instance_down")
        remaining = self.health.mark_down(name, index)
        if remaining:
            # Failover: future classifications rehash this NF's flows
            # over the healthy instances; memoized decisions pinned to
            # the casualty are invalidated (and counted) now.
            if self.flow_cache is not None:
                reassigned = sum(
                    1 for decision in self.flow_cache.decisions()
                    if decision.assignment.get(name) == index
                )
                if reassigned:
                    self.reassigned_flows += reassigned
                    hub.inc("failover.reassigned_flows", reassigned)
                self.flow_cache.invalidate()
            return
        # Zero healthy instances left: degrade every parallel graph the
        # NF participates in to its sequential linearization, and
        # restart the NF (fresh state) to serve the degraded chain.
        for mid in list(self.chaining.mids()):
            graph = self.chaining.graph_for(mid)
            if (name in graph.nf_names() and graph.has_parallelism
                    and mid not in self.degraded_mids):
                self.degraded_mids[mid] = self.degrade(mid)
        self.restart_instance(name, index)

    def degrade(self, mid: int) -> int:
        """Fall back to the sequential linearization of graph ``mid``.

        Installs the degraded chain under a fresh MID with the original
        CT match, so new traffic re-classifies onto it (the flow cache
        is invalidated by the install).  In-flight packets of the old
        MID drain through the AT/flight timeouts; the old graph stays
        resolvable for them.
        """
        graph = self.chaining.graph_for(mid)
        seq = linearize(graph)
        new_mid = max(self.chaining.mids()) + 1
        old_entry = self.chaining.ct_entry_for(mid)
        self.chaining.install(build_tables(seq, new_mid, match=old_entry.match))
        hub = self.telemetry
        if hub.enabled:
            hub.inc("failover.degraded_graphs")
        return new_mid

    def restart_instance(self, name: str, index: int) -> _NFRuntimeSim:
        """Replace a dead/hung instance with a fresh runtime (new state).

        The replacement gets a new label (``label~rN``), ring and core;
        packets stranded in the casualty's old ring are reclaimed by the
        flight sweeper.
        """
        group = self.runtimes[name]
        old = group.instances[index]
        group.restarts += 1
        # Never reuse a dead instance's label: the crashed runtime may
        # still observe its own health by name, and a revived same-name
        # entry would hand it a HEALTHY verdict mid-crash.
        label = f"{old.nf.name.split('~')[0]}~r{group.restarts}"
        runtime = group.instances[index] = self._spawn_runtime(group, label)
        self.health.mark_up(name, index)
        self.telemetry.inc("failover.restarts")
        return runtime

    # --------------------------------------------- live membership (autoscale)
    @property
    def active_cores(self) -> int:
        """Cores doing work right now: classifier + mergers + live NF
        instances.  Unlike ``cores_used`` (monotonic allocation
        counter) this drops when a scale-down retires instances -- the
        quantity core-second accounting integrates."""
        return 1 + len(self.mergers) + sum(
            len(group.instances) for group in self.runtimes.values()
        )

    def enable_flow_directory(self) -> None:
        """Track every live flow key the classifier sees.

        Membership change must hand per-flow NF state over for *every*
        moved flow; the flow cache only remembers the hot subset, so a
        controller turns this on before traffic starts.
        """
        if self.flow_directory is None:
            self.flow_directory = set()

    def request_rescale(self, name: str, count: int,
                        max_barrier_us: float = 10000.0):
        """Begin a live instance-count change; returns the DES process.

        The §7+Khalid&Akella protocol runs inside the simulation:

        1. hold the classifier (arrivals buffer in the ingress ring,
           overflow stays attributed);
        2. drain barrier: wait until no packet is in flight or in the
           classifier's hands, so nothing can observe half-moved state;
        3. grow (spawn runtimes, seed shared state such as the VPN AH
           sequence floor) or mark the surplus instances for retirement;
        4. re-split: update the RSS domain and the health board, then
           move per-flow NF state (NAT bindings) for every flow whose
           owner changed, and invalidate stale flow-cache pins;
        5. retire surplus runtimes (their rings lose their consumer) and
           release the hold.

        Flows that moved may observe reordering across the barrier;
        unmoved flows keep per-flow order (same instance before/after).
        """
        return self.env.process(self._rescale(name, count, max_barrier_us))

    def _rescale(self, name: str, new_count: int, max_barrier_us: float):
        if name not in self.runtimes:
            raise ValueError(f"no runtime group {name!r}")
        if new_count < 1:
            raise ValueError("instance count must be >= 1")
        hub = self.telemetry
        # Serialize concurrent membership changes.
        while self._hold is not None:
            yield self.env.timeout(1.0)
        group = self.runtimes[name]
        old_count = group.count
        event: Dict = {
            "ts_us": self.env.now, "name": name,
            "from": old_count, "to": new_count,
            "moved_flows": 0, "handover_flows": 0, "cache_reassigned": 0,
            "barrier_us": 0.0, "aborted": False,
        }
        if new_count == old_count:
            self.scale_events.append(event)
            return event

        # 1+2. Hold the classifier and drain the pipeline.
        self._hold = self.env.event()
        barrier_start = self.env.now
        step = max(self.params.batch_wait_us, 1.0)
        # The hold only stops the *next* burst: the one the classifier is
        # looking up right now is in neither the ingress ring nor
        # ``_flight`` yet, and must drain too.
        while ((self._flight or self._classifying)
               and self.env.now - barrier_start < max_barrier_us):
            yield self.env.timeout(step)
        event["barrier_us"] = self.env.now - barrier_start
        if self._flight or self._classifying:
            # Stuck in-flight packets (hung instance): abort the change
            # rather than retire instances still holding work.
            event["aborted"] = True
            hub.inc("autoscale.barrier_timeout")
            self.scale_events.append(event)
            self._release_hold()
            return event

        # 3. Grow the instance set (scale-down retires after handover).
        old_counts = dict(self._scaled_counts)
        old_view = self.health.view()
        retired: List[_NFRuntimeSim] = []
        if new_count > old_count:
            shared = [
                inst.nf.export_shared_state() for inst in group.instances
            ]
            for k in range(old_count, new_count):
                label = f"{name}#{k}"
                if label in self.nfs:
                    group.generations += 1
                    label = f"{name}#{k}~g{group.generations}"
                runtime = self._spawn_runtime(group, label)
                group.instances.append(runtime)
                # Cross-flow state floor: a fresh instance must not
                # restart sequences/counters its peers already used.
                for snap in shared:
                    if snap is not None:
                        runtime.nf.import_shared_state(snap)
            hub.inc("autoscale.scale_up")
        else:
            retired = group.instances[new_count:]
            hub.inc("autoscale.scale_down")

        # 4a. Update the RSS split domain and health registration.
        if new_count > 1:
            self._scaled_counts[name] = new_count
        else:
            self._scaled_counts.pop(name, None)
        self.health.resize(name, new_count)
        new_view = self.health.view()

        # 4b. Per-flow state handover for every flow whose owner moved.
        keys = set()
        if self.flow_directory is not None:
            keys.update(self.flow_directory)
        if self.flow_cache is not None:
            keys.update(self.flow_cache.keys())
        moved = handed = 0
        for key in sorted(keys):
            old_idx = assign_instances(
                key, old_counts, healthy=old_view).get(name, 0)
            new_idx = assign_instances(
                key, self._scaled_counts, healthy=new_view).get(name, 0)
            if old_idx == new_idx:
                continue
            moved += 1
            state = group.instances[old_idx].nf.export_flow_state(key)
            if state is not None:
                group.instances[new_idx].nf.import_flow_state(key, state)
                handed += 1
        event["moved_flows"] = moved
        event["handover_flows"] = handed
        self.moved_flows += moved
        self.handover_flows += handed
        if hub.enabled and moved:
            hub.inc("autoscale.moved_flows", moved)
            hub.inc("autoscale.handover_flows", handed)

        # 4c. Memoized classifier decisions may pin to the old split:
        # count the stale ones, then invalidate wholesale (mirror of
        # the failover path).
        if self.flow_cache is not None:
            reassigned = 0
            for key, decision in zip(self.flow_cache.keys(),
                                     self.flow_cache.decisions()):
                if decision.assignment.get(name, 0) != assign_instances(
                        key, self._scaled_counts,
                        healthy=new_view).get(name, 0):
                    reassigned += 1
            event["cache_reassigned"] = reassigned
            if reassigned:
                self.reassigned_flows += reassigned
                hub.inc("autoscale.reassigned_cache_flows", reassigned)
            self.flow_cache.invalidate()

        # 5. Retire surplus runtimes: the barrier drained all traffic,
        # so their rings are empty and each is parked on its ring;
        # unpark it and nothing re-arms.
        if retired:
            del group.instances[new_count:]
            for runtime in retired:
                runtime.retired = True
                runtime.rx.cancel_wait()

        self.scale_events.append(event)
        hub.inc("autoscale.rescale")
        self._release_hold()
        return event

    def _release_hold(self) -> None:
        hold, self._hold = self._hold, None
        if hold is not None and not hold.triggered:
            hold.succeed()

    # ----------------------------------------------------- flight sweeping
    def _maybe_sweep_flight(self, now: float) -> None:
        """Arm the lazy flight sweeper (fault runs only), ticking from
        ``now``, the instant the entry opened.

        The last-resort conservation backstop: reclaims per-packet state
        older than twice the AT timeout -- packets wedged in a hung
        instance's batch, stranded in a dead ring, or lost to a merger
        ring overflow before any AT entry opened.  AT entries age out
        first (1x), so anything still in flight at 2x has no other owner.
        """
        if (self._flight_sweeping or self.injector is None
                or self.params.at_timeout_us <= 0):
            return
        self._flight_sweeping = True
        self.env.call_at(now + self._flight_sweep_interval,
                         self._sweep_flight)

    def _sweep_flight(self) -> None:
        timeout = 2.0 * self.params.at_timeout_us
        hub = self.telemetry
        now = self.env.now
        expired = [key for key, state in self._flight.items()
                   if now - state.opened_us >= timeout]
        for key in expired:
            self._release(self._flight.pop(key))
            self._count_drop("flight_timeout")
            if hub.enabled:
                hub.inc("drops.flight_timeout")
        if self._flight:
            self.env.call_later(self._flight_sweep_interval,
                                self._sweep_flight)
        else:
            self._flight_sweeping = False

    # ---------------------------------------------------------- telemetry
    def collect_telemetry(self) -> None:
        """Sample end-of-run state into gauges (rings, cores, engine, AT).

        Counters and spans stream in live; occupancy watermarks and
        utilisation only make sense once the run is over, so callers
        (harness, CLI) invoke this after the environment drains.
        """
        hub = self.telemetry
        if not hub.enabled:
            return
        hub.gauge("engine.events_processed", float(self.env.events_processed))
        hub.gauge("engine.queue_hwm", float(self.env.queue_high_watermark))
        rings = [self.ingress] + [m.rx for m in self.mergers]
        cores = [self.classifier_core] + [m.core for m in self.mergers]
        for group in self.runtimes.values():
            for runtime in group.instances:
                rings.append(runtime.rx)
                cores.append(runtime.core)
        for ring in rings:
            hub.gauge(f"ring.{ring.name}.hwm", float(ring.high_watermark))
            hub.gauge(f"ring.{ring.name}.depth", float(len(ring)))
        for core in cores:
            hub.gauge(f"core.{core.name}.utilisation", core.utilisation())
        for merger in self.mergers:
            hub.gauge(f"merger{merger.index}.at_hwm",
                      float(merger.at_high_watermark))
            hub.gauge(f"merger{merger.index}.at_depth", float(len(merger.at)))
        if self.flow_cache is not None:
            hub.gauge("classifier.flow_cache.size", float(len(self.flow_cache)))
            hub.gauge("classifier.flow_cache.capacity",
                      float(self.flow_cache.capacity))
            hub.gauge("classifier.flow_cache.invalidations",
                      float(self.flow_cache.invalidations))

    # ------------------------------------------------- streaming telemetry
    def probes(self) -> Dict[str, Callable[[], float]]:
        """Live gauge probes for a windowed sampler.

        Everything :meth:`collect_telemetry` can only report at
        end-of-run is exposed here as callables a
        :class:`~repro.telemetry.timeseries.Sampler` reads *during* the
        run: instantaneous ring depth and occupancy, accumulating-table
        depth, in-flight packets, and per-core utilisation *within the
        current window* (a stateful delta over ``Core.busy_time_at``,
        not the run-cumulative ratio).
        """
        probes: Dict[str, Callable[[], float]] = {}
        rings = [self.ingress] + [m.rx for m in self.mergers]
        cores = [self.classifier_core] + [m.core for m in self.mergers]
        for group in self.runtimes.values():
            for runtime in group.instances:
                rings.append(runtime.rx)
                cores.append(runtime.core)
        for ring in rings:
            probes[f"ring.{ring.name}.depth"] = (
                lambda r=ring: float(len(r))
            )
            probes[f"ring.{ring.name}.occupancy"] = (
                lambda r=ring: len(r) / r.capacity
            )
        for core in cores:
            probes[f"core.{core.name}.window_util"] = (
                self._window_utilisation_probe(core)
            )
        for merger in self.mergers:
            probes[f"merger{merger.index}.at_depth"] = (
                lambda m=merger: float(len(m.at))
            )
        # Aggregates, so watch rules need no per-component names:
        # worst ring occupancy and total AT depth across the server.
        # Computed over the *live* membership on every sample, so rings
        # added (or retired) by autoscaling are seen immediately.
        probes["ring.occupancy"] = (
            lambda: max(len(r) / r.capacity for r in self._live_rings())
        )
        probes["at.depth"] = (
            lambda ms=tuple(self.mergers): float(sum(len(m.at) for m in ms))
        )
        probes["flight.depth"] = lambda: float(len(self._flight))
        probes["cores.active"] = lambda: float(self.active_cores)
        return probes

    def _live_rings(self) -> List[Ring]:
        """Ingress + merger + every live NF instance ring, right now."""
        rings = [self.ingress] + [m.rx for m in self.mergers]
        for group in self.runtimes.values():
            for runtime in group.instances:
                rings.append(runtime.rx)
        return rings

    def _window_utilisation_probe(self, core: Core) -> Callable[[], float]:
        """Busy fraction of the interval since the probe last fired."""
        state = {"busy": core.busy_time_at(self.env.now), "now": self.env.now}

        def probe() -> float:
            now = self.env.now
            busy_now = core.busy_time_at(now)
            elapsed = now - state["now"]
            busy = busy_now - state["busy"]
            state["busy"] = busy_now
            state["now"] = now
            if elapsed <= 0.0:
                return 0.0
            return min(1.0, busy / elapsed)

        return probe

    def arm_sampler(self, sampler) -> None:
        """Attach a :class:`~repro.telemetry.timeseries.Sampler`.

        Registers every live probe and schedules the sampler as a
        periodic DES event.  Call after :meth:`deploy` (the probes
        enumerate the deployed rings/cores) and before the run starts.
        """
        sampler.add_probes(self.probes())
        sampler.arm(self.env)
