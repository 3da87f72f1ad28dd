"""Functional (untimed) execution of service graphs.

Runs a compiled :class:`~repro.core.graph.ServiceGraph` over real packet
bytes with full NFP semantics -- versions, header-only copies, stage
barriers, nil propagation, merging -- but no clock.  This is the
reference the *result correctness principle* (§4.1) is verified against:
for any policy, ``FunctionalDataplane`` output must be byte-identical to
:class:`SequentialReference` output over the original chain (§6.4's
replay experiment).

The timed DES dataplane (:mod:`repro.dataplane.server`) shares the same
NF objects and merge code; this module is the semantics, that one adds
queueing and service times.

Scaled graphs (§7) execute here too: pass ``scale`` (a uniform int or a
name -> count mapping) and each replicated NF gets per-instance objects
(``name#k``); every packet is routed to its flow's instance through the
same RSS split the DES server uses
(:mod:`repro.dataplane.flowsplit`), so NF state partitions identically
across planes.  :class:`SequentialBank` is the matching sequential
ground truth: N independent sequential chains fed by the same split.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from ..core.closures import CompiledGraph, instance_labels
from ..core.graph import ORIGINAL_VERSION, ServiceGraph
from ..core.scaling import scale_graph
from ..faults import FaultInjector, HealthBoard
from ..net.packet import Packet
from ..nfs.base import NetworkFunction, create_nf
from .flowsplit import key_digest, packet_key, pick_instance
from .merging import MergePlan, apply_merge_ops

__all__ = [
    "FunctionalDataplane",
    "SequentialReference",
    "SequentialBank",
    "instantiate_nfs",
]


def _counts(graph: ServiceGraph, scale) -> Dict[str, int]:
    """NF name -> instance count; ``scale`` as ``scale_graph`` takes it."""
    return scale_graph(graph, 1 if scale is None else scale).counts


def instantiate_nfs(
    graph: ServiceGraph,
    scale: Union[int, Mapping[str, int], None] = None,
    **kwargs,
) -> Dict[str, NetworkFunction]:
    """Create NF objects per graph node, keyed by instance label.

    Unscaled nodes key by their plain name; replicated nodes get one
    object per instance under ``name#k`` labels (the same labels the
    DES server and telemetry use).  Extra kwargs are forwarded to every
    constructor.
    """
    counts = _counts(graph, scale)
    instances: Dict[str, NetworkFunction] = {}
    for node in graph.nodes():
        for label in instance_labels(node.name, counts[node.name]):
            instances[label] = create_nf(node.kind, name=label, **kwargs)
    return instances


class FunctionalDataplane:
    """Synchronous executor with NFP's exact packet semantics.

    The one stage walk: NFP's per-packet semantics, written once.  It
    executes the graph's bound :class:`~repro.core.closures.CompiledGraph`
    program: copies due at a stage's entry come from the current version
    1, every NF of the stage sees the pre-stage buffers, a drop takes
    effect only after the stage (parallel semantics), and the collected
    versions are merged at the end.  A replicated entry runs on
    ``labels[digest % count]`` of the crc32 of the packet's flow key --
    the split the DES classifier gets from ``assign_instances``.  A
    cross-server slice runs here as a graph of its own
    (:func:`repro.core.partition.slice_subgraph`).
    """

    def __init__(
        self,
        graph: ServiceGraph,
        nf_instances: Optional[Dict[str, NetworkFunction]] = None,
        scale: Union[int, Mapping[str, int], None] = None,
        injector: Optional[FaultInjector] = None,
        telemetry=None,
    ):
        self.graph = graph
        #: The untimed plane has no clock: the hub only counts
        #: control-plane facts (RSS pinning).
        self.telemetry = telemetry
        self.scale = _counts(graph, scale)
        self._stages = CompiledGraph(graph, self.scale).program
        #: Instance label -> NF object, looked up per packet.
        self.nfs = nf_instances or instantiate_nfs(graph, scale=self.scale)
        missing = [label for _, entries in self._stages
                   for _, _, labels, _ in entries
                   for label in labels if label not in self.nfs]
        if missing:
            raise ValueError(f"no NF instances for graph nodes: {missing}")
        #: Whether any entry is replicated (else no packet is hashed).
        self._scaled = any(count > 1 for _, entries in self._stages
                           for _, count, _, _ in entries)
        self._plan = MergePlan(graph.merge_ops)
        self.processed = self.emitted = self.dropped = 0
        #: Instance health is consulted before each NF application.
        #: Down instances drop the version (nil) instead of serving it;
        #: with replicas left, later flows rehash onto healthy
        #: instances; with none left, the instance restarts fresh (its
        #: per-flow state is lost -- the semantics failover degrades to,
        #: and what fuzzing measures the blast radius of).
        self.injector = injector
        self.health = HealthBoard()
        for name, count in self.scale.items():
            self.health.register(name, count)
        #: reason -> packet count for faulted drops (conservation report).
        self.drop_reasons: Dict[str, int] = {}
        self.restarts = 0

    def process(self, pkt: Packet) -> Optional[Packet]:
        """Run one packet through the program; ``None`` means dropped."""
        self.processed += 1
        injector = self.injector
        digest, live = 0, None
        if self._scaled:
            digest = key_digest(packet_key(pkt), self.telemetry)
            if injector is not None:
                live = self.health.view()
        nfs = self.nfs
        versions: Dict[int, Packet] = {ORIGINAL_VERSION: pkt}

        for copies, entries in self._stages:
            for copy in copies:
                versions[copy.version] = copy.make(versions[ORIGINAL_VERSION])
            newly_dropped = []
            for version, count, labels, entry in entries:
                buffer = versions[version]
                if buffer.nil:
                    continue
                if count == 1:
                    index = 0
                elif live is None:
                    index = digest % count
                else:
                    index = pick_instance(digest, count,
                                          live.get(entry.node.name))
                label = labels[index]
                if (injector is not None
                        and self._instance_down(entry, label, index)):
                    newly_dropped.append(version)
                elif nfs[label].handle(buffer).dropped:
                    newly_dropped.append(version)
            for version in newly_dropped:
                versions[version] = versions[version].make_nil()

        # The module global, looked up per call: the lab patches it.
        merged = apply_merge_ops(versions, self._plan)
        if merged is None:
            self.dropped += 1
        else:
            self.emitted += 1
        return merged

    def _instance_down(self, entry, label: str, index: int) -> bool:
        """Health gate before one NF application (fault runs only).

        Returns True when the instance is dead/hung and the version must
        drop.  When the casualty was the group's last healthy instance
        it is restarted immediately with a fresh NF object (per-flow
        state lost) -- the untimed plane has no parked process, so
        reviving in place is safe here.
        """
        injector = self.injector
        state = injector.on_packet(label, float(self.processed))
        if not state.down:
            return False
        self.drop_reasons["instance_down"] = (
            self.drop_reasons.get("instance_down", 0) + 1)
        name = entry.node.name
        remaining = self.health.mark_down(name, index)
        if not remaining:
            self.nfs[label] = create_nf(entry.node.kind, name=label)
            self.restarts += 1
            injector.revive(label)
            self.health.mark_up(name, index)
        return True

    def process_many(self, packets: Iterable[Packet]) -> List[Optional[Packet]]:
        return [self.process(pkt) for pkt in packets]


class SequentialReference:
    """Plain sequential chain execution -- the ground truth of §4.1."""

    def __init__(self, nfs: Sequence[NetworkFunction]):
        self.nfs = list(nfs)
        self.processed = 0
        self.emitted = 0
        self.dropped = 0

    def process(self, pkt: Packet) -> Optional[Packet]:
        """Run the chain in order; a drop terminates processing."""
        self.processed += 1
        for nf in self.nfs:
            ctx = nf.handle(pkt)
            if ctx.dropped:
                self.dropped += 1
                return None
        self.emitted += 1
        return pkt

    def process_many(self, packets: Iterable[Packet]) -> List[Optional[Packet]]:
        return [self.process(pkt) for pkt in packets]


class SequentialBank:
    """N independent sequential chains behind the shared RSS split.

    The sound sequential oracle for a *scaled* parallel deployment: NFs
    with cross-flow state (the NAT's arrival-order port allocator, the
    VPN's global AH sequence counter) partition their state per
    instance once a graph is scaled, so the reference must partition
    identically.  ``chain_factory(bank_index)`` builds one fresh
    sequential chain per bank; packets route by the same flow key /
    ``crc32`` split every other plane uses.  With ``instances=1`` this
    degenerates to a plain :class:`SequentialReference`.
    """

    def __init__(
        self,
        chain_factory: Callable[[int], Sequence[NetworkFunction]],
        instances: int,
    ):
        if instances < 1:
            raise ValueError("instances must be >= 1")
        self.banks = [
            SequentialReference(chain_factory(k)) for k in range(instances)
        ]

    def bank_for(self, pkt: Packet) -> int:
        return pick_instance(key_digest(packet_key(pkt)), len(self.banks))

    def process(self, pkt: Packet) -> Optional[Packet]:
        return self.banks[self.bank_for(pkt)].process(pkt)

    def process_many(self, packets: Iterable[Packet]) -> List[Optional[Packet]]:
        return [self.process(pkt) for pkt in packets]

    @property
    def processed(self) -> int:
        return sum(bank.processed for bank in self.banks)

    @property
    def emitted(self) -> int:
        return sum(bank.emitted for bank in self.banks)

    @property
    def dropped(self) -> int:
        return sum(bank.dropped for bank in self.banks)
