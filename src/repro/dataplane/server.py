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

The per-core state machines (NF runtimes, mergers) and the per-packet
flight state live in :mod:`repro.dataplane.runtimes`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.closures import CompiledGraph, instance_labels
from ..core.graph import ORIGINAL_VERSION
from ..core.orchestrator import DeployedGraph
from ..core.tables import CTEntry, build_tables
from ..faults import FaultInjector, FaultKind, HealthBoard, HealthState, base_name
from ..faults.recovery import linearize
from ..net.packet import Packet, PacketMeta
from ..nfs.base import NetworkFunction, create_nf
from ..sim import Core, Environment, NicEgress, PacketPool, Ring, SimParams
from ..telemetry.hooks import NULL_HUB, TelemetryHub
from ..telemetry.tracer import SpanKind
from .chaining import ChainingManager
from .flowsplit import assign_instances
from .runtimes import FlightState, Sweeper, _MergerSim, _NFRuntimeSim, _RuntimeGroup

__all__ = ["NFPServer"]


class NFPServer(NicEgress):
    """A full simulated NFP box processing deployed service graphs."""

    # ``flow_cache`` (always None) and the ``flow_cache_size`` keyword
    # (accepted, unused) are kept for the performance lab, which changes
    # only together with the benchmark itself: ``benchmarks/lab/child.py:176``
    # builds ``NFPServer(..., flow_cache_size=4096)`` and
    # ``benchmarks/lab/workloads.py:296`` reads ``server.flow_cache``.
    # ROADMAP's lab-upkeep item (5) removes them.
    flow_cache = None

    def __init__(
        self,
        env: Environment,
        params: SimParams,
        num_mergers: int = 1,
        nf_factory: Optional[Callable[[str, str], NetworkFunction]] = None,
        telemetry: Optional[TelemetryHub] = None,
        flow_cache_size: int = 0,  # lab stub, see ``flow_cache`` above
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

        # Conservation ledger: every injected packet must end up in
        # ``emitted`` or in exactly one reason bucket of ``drops``.
        self.injected = 0
        self.emitted = 0
        self.drops: Dict[str, int] = {}

        # Failover state.
        self.health = HealthBoard()
        #: original MID -> degraded sequential MID.
        self.degraded_mids: Dict[int, int] = {}
        #: The last-resort conservation backstop, on fault runs only:
        #: reclaims per-packet state older than twice the AT timeout --
        #: packets wedged in a hung instance's batch, stranded in a dead
        #: ring, or lost to a merger ring overflow before any AT entry
        #: opened.  AT entries age out first (1x), so anything still in
        #: flight at 2x has no other owner.
        timeout = params.at_timeout_us
        self._flight_sweeper: Optional[Sweeper] = Sweeper(
            env, self._flight, max(timeout / 2.0, 1.0), 2.0 * timeout,
            "opened_us", self._expire_flight,
        ) if injector is not None and timeout > 0 else None

        # Live membership (autoscaling) state.
        #: Classifier hold gate: while a membership change drains the
        #: pipeline, the first packets of the bursts the classifier
        #: parked; None when traffic flows freely.
        self._hold: Optional[List[Packet]] = None
        #: Flow keys seen by the classifier, kept only when a membership
        #: controller enabled it: state handover needs every live flow,
        #: and a rescale refuses a server without it.
        self.flow_directory: Optional[Set[bytes]] = None
        #: Completed membership changes, in order (records; see
        #: request_rescale).
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
        graph = compiled.graph
        compiled.merge_delay_us = self.params.merge_delay_us(
            graph.num_versions, graph.total_count)

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
        # Overflow -> _ingress_overflow.
        self.env.call_later(self.params.nic_io_us, self.ingress.try_put, pkt)

    def _ingress_overflow(self, pkt: Packet) -> None:
        self.telemetry.inc("ring.overflow_drop")
        self._drop_unclassified(pkt, "ingress_full")

    def _drop_unclassified(self, pkt: Packet, reason: str) -> None:
        """Drop a packet that holds no flight state: free its pool slot,
        count it lost and reason-tag it."""
        self.pool.free(len(pkt.buf))
        self.lost += 1
        self._count_drop(reason)
        self.telemetry.inc(f"drops.{reason}")

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
            self._hold.append(first)
            return
        params = self.params
        hub = self.telemetry
        reserve = self.classifier_core.reserve
        now = self.env.now
        batch = self.ingress.burst(first, params.batch_size)
        self._classifying = len(batch)
        work = []
        directory = self.flow_directory
        # The health view is a dict over every runtime group: built only
        # when something is replicated and will read it, and once per
        # burst, since no health transition fires inside this loop.
        scaled = self._scaled_counts
        healthy = self.health.view() if scaled else None
        for pkt in batch:
            # The one header walk: it fills the parse memo the packet's
            # copies inherit and its read-only NFs answer from.
            key = pkt.parse()
            if key is not None and directory is not None:
                directory.add(key)
            entry = self.chaining.classify(key)
            if entry is None:
                self._drop_unclassified(pkt, "no_match")
                continue
            compiled = self.chaining.compiled_for(entry.mid)
            # Tagging is for the merger; a sequential graph only forwards.
            now = reserve(now, params.classifier_tag_us
                          if compiled.needs_merger
                          else params.classifier_fwd_us)
            work.append((pkt, entry, assign_instances(
                key, scaled, healthy=healthy, telemetry=hub)))
        self.env.call_at(now, self._fan_out, work, now)

    def _fan_out(self, work: List[Tuple[Packet, CTEntry, Dict[str, int]]],
                 now: float) -> None:
        """Tag and distribute the looked-up burst; ``now`` walks it."""
        reserve = self.classifier_core.reserve
        for pkt, entry, assignment in work:
            extra = self._classify_one(pkt, entry, assignment, now)
            if extra > 0:
                now = reserve(now, extra)
        self._classifying = 0
        self.ingress.wait(self._classifier_wake, now)

    def _classify_one(self, pkt: Packet, entry: CTEntry,
                      assignment: Dict[str, int], now: float) -> float:
        """Tag metadata, run CT actions; returns extra core time spent."""
        mid = entry.mid
        compiled = self.chaining.compiled_for(mid)
        pid = self._next_pid = (self._next_pid + 1) % (1 << 40)
        pkt.meta = PacketMeta(mid=mid, pid=pid, version=ORIGINAL_VERSION)
        state = FlightState(pkt, compiled, assignment, now)
        self._flight[(mid, pid)] = state
        if self._flight_sweeper is not None:
            self._flight_sweeper.arm(now)

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
                    dropped: bool) -> float:
        """Bookkeeping after an NF finishes one packet, at instant ``now``.

        Runs the NF's verdict on the packet through the barrier state
        machine and executes FT actions.  Returns extra core time the
        runtime must charge (ring hops + copies it performed).  ``now``
        is the packet's own instant in its burst's commit phase, at or
        ahead of the clock: spans and deliveries are placed at it, not
        at ``env.now``.

        ``dropped`` is the verdict: the NF dropped the packet, or never
        actually served it (crash abort, ring overflow).  Its version is
        recorded as dropped, so the resulting nil reaches the merger and
        the AT entry completes instead of stranding.
        """
        meta = pkt.meta
        state = self._flight.get((meta.mid, meta.pid))
        if state is None:
            return 0.0
        key, (last, fan_in, copies, targets) = state.steps[runtime.name]
        version = key[1]

        if dropped:
            state.dropped.add(version)

        # Mid-graph: version barrier, counted only when it has one.
        if not last and fan_in > 1:
            barriers = state.barriers
            remaining = barriers[key] = barriers.get(key, fan_in) - 1
            if remaining > 0:
                return 0.0

        # The version as it leaves this stage: nil once any NF dropped it.
        versions = state.versions
        out_pkt = versions[version]
        if version in state.dropped and not out_pkt.nil:
            out_pkt = versions[version] = out_pkt.make_nil()

        extra = 0.0
        hop = self.params.ring_hop_us
        if last:
            # Final stage for this version: notify the merger the PID
            # hash picks (or output directly for a sequential graph).
            if state.merged:
                self._post(self.mergers[meta.pid % self.num_mergers].rx,
                           out_pkt, now, self.params.merger_hop_latency_us)
                extra += hop
            elif out_pkt.nil:
                self.record_drop(out_pkt, now)
            else:
                self.emit(out_pkt, now)
            return extra

        # Barrier complete: this runtime makes the copies due at the
        # next stage's entry and forwards to that stage.
        for copy, names in copies:
            extra += self._make_copy(state, out_pkt, copy, now)
            new_pkt = versions[copy.version]
            for name in names:
                self._post(self._ring_for(name, state), new_pkt, now)
                extra += hop
        for name in targets:
            self._post(self._ring_for(name, state), out_pkt, now)
            extra += hop
        return extra

    # ------------------------------------------------------------- egress
    def _post(self, ring: Ring, pkt: Packet, now: float,
              delay: Optional[float] = None) -> None:
        """Send the reference at ``now``; it lands after the pipeline's
        batch latency (or ``delay``).

        Fault-free and fail-fast (no injector, ``ring_retry_limit`` 0),
        landing is the ring's own :meth:`~repro.sim.Ring.try_put`, queued
        directly; otherwise :meth:`_land` decides.  Either way it is one
        queue entry at the same instant.
        """
        params = self.params
        wait = params.batch_wait_us if delay is None else delay
        hub = self.telemetry
        if hub.enabled:
            hub.inc("ring.hops")
            hub.span(SpanKind.ENQUEUE, now, pkt.meta, ring.name)
        if self.injector is None and params.ring_retry_limit == 0:
            self.env.call_at(now + wait, ring.try_put, pkt)
        else:
            self.env.call_at(now + wait, self._land, ring, pkt)

    def _land(self, ring: Ring, pkt: Packet,
              retries: Optional[int] = None) -> None:
        """Land a posted reference: divert, retry while full, or put.

        Queued by :meth:`_post` only on a server with a fault injector
        or ring retries; a plain landing is the ring's ``try_put``.

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
        self._merger_overflow(pkt)
        self.fault_abort(runtime, pkt, self.env.now)

    def _merger_overflow(self, pkt: Packet) -> None:
        """A merger rx ring rejected a notification (the loss accounting
        an NF ring's overflow shares).

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

        Reuses :meth:`nf_complete` with a drop verdict: the version is
        nil'ed and barrier/forwarding bookkeeping runs, so downstream
        stages and the merger account the packet naturally.  Stale
        references (flight already reclaimed) are ignored.
        """
        meta = pkt.meta
        if meta is None or (meta.mid, meta.pid) not in self._flight:
            return
        self.telemetry.inc("faults.aborted_packets")
        self.nf_complete(runtime, pkt, now, dropped=True)

    def emit(self, pkt: Packet, now: float, extra_delay: float = 0.0) -> None:
        """Send a packet finished at ``now`` out of the NIC; record metrics.
        The packet leaves its parse memo behind."""
        pkt.memo_offsets = pkt.memo_key = None
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
        name = base_name(label)
        group = self.runtimes.get(name)
        index = None if group is None else group.index_of(label)
        if index is None:
            return
        if spec.kind is FaultKind.RING_PRESSURE:
            group.instances[index].rx.capacity = spec.ring_capacity
            return
        if not state.down:
            return
        hub = self.telemetry
        hub.inc("failover.instance_down")
        remaining = self.health.mark_down(name, index)
        if remaining:
            # Failover: future classifications rehash this NF's flows
            # over the healthy instances.
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
        CT match, so new traffic re-classifies onto it.  In-flight
        packets of the old MID drain through the AT/flight timeouts; the
        old graph stays resolvable for them.
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
        moved flow, and the directory is the only record of live flows,
        so a controller turns this on before traffic starts;
        :meth:`request_rescale` refuses a server without it.
        """
        if self.flow_directory is None:
            self.flow_directory = set()

    def request_rescale(
        self, name: str, count: int, max_barrier_us: float = 10000.0,
        on_done: Optional[Callable[[Dict], None]] = None,
    ) -> Dict:
        """Begin a live instance-count change; returns its record.

        The §7+Khalid&Akella protocol runs inside the simulation as a
        phase machine, one scheduled call per step:

        1. wait (:meth:`_rescale_wait`) while another change holds the
           classifier, polling every 1 us;
        2. hold and drain (:meth:`_rescale_drain`): hold the classifier
           (arrivals buffer in the ingress ring, overflow stays
           attributed) and poll every ``max(batch_wait_us, 1)`` us until
           no packet is in flight or in the classifier's hands, so
           nothing can observe half-moved state;
        3. move state and re-split (:meth:`_rescale_move`): grow (spawn
           runtimes, seed shared state such as the VPN AH sequence floor)
           or mark the surplus instances for retirement, update the RSS
           domain and the health board, move per-flow NF state (NAT
           bindings) for every flow of the directory whose owner changed
           and retire the surplus runtimes;
        4. release (:meth:`_release_hold`): one zero-delay call wakes the
           bursts the hold parked, in order.

        The record -- ``ts_us`` and ``from`` are set as the change takes
        the classifier -- is appended to :attr:`scale_events` and handed
        to ``on_done`` once the change completes or aborts (a drain that
        outlasts ``max_barrier_us``).  An unknown group, a count below 1
        or a server with no flow directory (its live flows would lose
        their NF state) raises :class:`ValueError` here and queues
        nothing.

        Flows that moved may observe reordering across the barrier;
        unmoved flows keep per-flow order (same instance before/after).
        """
        if name not in self.runtimes:
            raise ValueError(f"no runtime group {name!r}")
        if count < 1:
            raise ValueError("instance count must be >= 1")
        if self.flow_directory is None:
            raise ValueError("rescale needs a flow directory to hand live "
                             "flows over; call enable_flow_directory() first")
        record: Dict = {
            "ts_us": self.env.now, "name": name,
            "from": self.runtimes[name].count, "to": count,
            "moved_flows": 0, "handover_flows": 0,
            "barrier_us": 0.0, "aborted": False,
        }
        self.env.call_later(0.0, self._rescale_wait, record, max_barrier_us,
                            on_done)
        return record

    def _rescale_wait(self, record: Dict, max_barrier_us: float,
                      on_done: Optional[Callable[[Dict], None]]) -> None:
        """Phase 1: serialize membership changes, then take the hold."""
        env = self.env
        if self._hold is not None:
            env.call_later(1.0, self._rescale_wait, record, max_barrier_us,
                           on_done)
            return
        record["ts_us"] = env.now
        record["from"] = self.runtimes[record["name"]].count
        if record["to"] == record["from"]:
            self._rescale_finish(record, on_done)
            return
        self._hold = []
        self._rescale_drain(record, max_barrier_us, on_done)

    def _rescale_drain(self, record: Dict, max_barrier_us: float,
                       on_done: Optional[Callable[[Dict], None]]) -> None:
        """Phase 2: poll until the pipeline drains (or the budget runs out).

        The hold only stops the *next* burst: the one the classifier is
        looking up right now is in neither the ingress ring nor
        ``_flight`` yet, and must drain too.
        """
        env = self.env
        busy = self._flight or self._classifying
        barrier_us = env.now - record["ts_us"]
        if busy and barrier_us < max_barrier_us:
            env.call_later(max(self.params.batch_wait_us, 1.0),
                           self._rescale_drain, record, max_barrier_us,
                           on_done)
            return
        record["barrier_us"] = barrier_us
        if busy:
            # Stuck in-flight packets (hung instance): abort the change
            # rather than retire instances still holding work.
            record["aborted"] = True
            self.telemetry.inc("autoscale.barrier_timeout")
        else:
            self._rescale_move(record)
        self._release_hold()
        self._rescale_finish(record, on_done)

    def _rescale_move(self, record: Dict) -> None:
        """Phase 3: move state and re-split, under the drained hold."""
        hub = self.telemetry
        name, old_count, new_count = record["name"], record["from"], record["to"]
        group = self.runtimes[name]

        # 3a. Grow the instance set (scale-down retires after handover).
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

        # 3b. Update the RSS split domain and health registration.
        if new_count > 1:
            self._scaled_counts[name] = new_count
        else:
            self._scaled_counts.pop(name, None)
        self.health.resize(name, new_count)
        new_view = self.health.view()

        # 3c. Per-flow state handover for every flow whose owner moved.
        moved = handed = 0
        for key in sorted(self.flow_directory):
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
        record["moved_flows"] = moved
        record["handover_flows"] = handed
        self.moved_flows += moved
        self.handover_flows += handed
        if hub.enabled and moved:
            hub.inc("autoscale.moved_flows", moved)
            hub.inc("autoscale.handover_flows", handed)

        # 3d. Retire surplus runtimes: the barrier drained all traffic,
        # so their rings are empty and each is parked on its ring;
        # unpark it and nothing re-arms.
        if retired:
            del group.instances[new_count:]
            for runtime in retired:
                runtime.retired = True
                runtime.rx.cancel_wait()

        hub.inc("autoscale.rescale")

    def _rescale_finish(self, record: Dict,
                        on_done: Optional[Callable[[Dict], None]]) -> None:
        self.scale_events.append(record)
        if on_done is not None:
            on_done(record)

    def _release_hold(self) -> None:
        """Phase 4: lift the hold; one zero-delay call wakes the parked
        bursts in order (nothing is queued when none parked)."""
        parked, self._hold = self._hold, None
        if parked:
            self.env.call_later(0.0, self._wake_parked, parked)

    def _wake_parked(self, parked: List[Packet]) -> None:
        for first in parked:
            self._classifier_wake(first)

    # ----------------------------------------------------- flight sweeping
    def _expire_flight(self, key: Tuple[int, int], state: FlightState) -> None:
        self._release(state)
        self._count_drop("flight_timeout")
        hub = self.telemetry
        if hub.enabled:
            hub.inc("drops.flight_timeout")

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
        components = self._components()
        for ring, _ in components:
            hub.gauge(f"ring.{ring.name}.hwm", float(ring.high_watermark))
            hub.gauge(f"ring.{ring.name}.depth", float(len(ring)))
        for _, core in components:
            hub.gauge(f"core.{core.name}.utilisation", core.utilisation())
        for merger in self.mergers:
            hub.gauge(f"merger{merger.index}.at_hwm",
                      float(merger.at_high_watermark))
            hub.gauge(f"merger{merger.index}.at_depth", float(len(merger.at)))

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
        components = self._components()
        for ring, _ in components:
            probes[f"ring.{ring.name}.depth"] = (
                lambda r=ring: float(len(r))
            )
            probes[f"ring.{ring.name}.occupancy"] = (
                lambda r=ring: len(r) / r.capacity
            )
        for _, core in components:
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
            lambda: max(len(r) / r.capacity for r, _ in self._components())
        )
        probes["at.depth"] = (
            lambda ms=tuple(self.mergers): float(sum(len(m.at) for m in ms))
        )
        probes["flight.depth"] = lambda: float(len(self._flight))
        probes["cores.active"] = lambda: float(self.active_cores)
        return probes

    def _components(self) -> List[Tuple[Ring, Core]]:
        """(rx ring, core) of the classifier, each merger and every live
        NF instance, in that order, right now."""
        components = [(self.ingress, self.classifier_core)]
        components.extend((m.rx, m.core) for m in self.mergers)
        for group in self.runtimes.values():
            components.extend((r.rx, r.core) for r in group.instances)
        return components

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
