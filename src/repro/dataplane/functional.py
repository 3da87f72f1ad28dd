"""Functional (untimed) execution of service graphs.

Runs a compiled :class:`~repro.core.graph.ServiceGraph` over real packet
bytes with full NFP semantics -- versions, header-only copies, stage
barriers, nil propagation, merging -- but no clock.  This is the
reference the *result correctness principle* (§4.1) is verified against:
for any policy, ``FunctionalDataplane`` output must be byte-identical to
:class:`SequentialReference` output over the original chain (§6.4's
replay experiment).

The walk is stage-major over a burst, the unit of work of NFP's DPDK
dataplane (§5): each stage runs over every packet of the burst, and an
NF gets the burst's live buffers in one
:meth:`~repro.nfs.base.NetworkFunction.handle_burst` (so the VPN runs
one cipher pass per burst here, as on the DES).  A single packet is a
burst of one; there is no per-packet walk beside it.

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
from ..net.packet import FORGET_MEMO, Packet, forget_memos
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
    DES server and its per-NF counters use).  Extra kwargs are
    forwarded to every constructor.
    """
    counts = _counts(graph, scale)
    instances: Dict[str, NetworkFunction] = {}
    for node in graph.nodes():
        for label in instance_labels(node.name, counts[node.name]):
            instances[label] = create_nf(node.kind, name=label, **kwargs)
    return instances


class FunctionalDataplane:
    """Synchronous executor with NFP's exact packet semantics.

    The one stage walk: NFP's per-packet semantics, written once and
    run stage-major over a burst (:meth:`process_many`; :meth:`process`
    is a burst of one).  It executes the graph's bound
    :class:`~repro.core.closures.CompiledGraph` program: copies due at a
    stage's entry come from the current version 1, every NF of the
    stage sees the pre-stage buffers, a drop takes effect only after the
    stage (parallel semantics), and the collected versions are merged at
    the end.  A replicated entry runs on ``labels[digest % count]`` of
    the crc32 of the packet's flow key -- the split the DES classifier
    gets from ``assign_instances`` -- and each instance gets its share
    of the burst in burst order.  A cross-server slice runs here as a
    graph of its own (:func:`repro.core.partition.slice_subgraph`).
    """

    def __init__(
        self,
        graph: ServiceGraph,
        nf_instances: Optional[Dict[str, NetworkFunction]] = None,
        scale: Union[int, Mapping[str, int], None] = None,
    ):
        self.graph = graph
        self.scale = _counts(graph, scale)
        compiled = CompiledGraph(graph, self.scale)
        self._stages = compiled.program
        self._forget = compiled.forget
        #: Instance label -> NF object, looked up per burst.
        self.nfs = nf_instances or instantiate_nfs(graph, scale=self.scale)
        missing = [label for _, entries in self._stages
                   for _, _, labels, _ in entries
                   for label in labels if label not in self.nfs]
        if missing:
            raise ValueError(f"no NF instances for graph nodes: {missing}")
        #: The distinct instance counts of replicated entries: a burst
        #: is split once per count (none: no packet is hashed).
        self._replicas = sorted({count for _, entries in self._stages
                                 for _, count, _, _ in entries if count > 1})
        self._plan = MergePlan(graph.merge_ops)
        self.processed = self.emitted = self.dropped = 0

    def process(self, pkt: Packet) -> Optional[Packet]:
        """Run one packet through the program -- a burst of one;
        ``None`` means dropped."""
        return self.process_many((pkt,))[0]

    def process_many(self, packets: Iterable[Packet]) -> List[Optional[Packet]]:
        """Run a burst through the program, one stage at a time.

        Each packet is parsed once, at entry, as NFP's classifier does:
        the parse memo it fills is what copies inherit and read-only NFs
        answer from.
        Each stage makes its entry copies for every packet, applies each
        entry's memo rule to its live buffers, hands the entry's NF
        those buffers in one ``handle_burst``, and turns that stage's
        drops into nils; then every packet merges, and leaves its memo
        behind.
        Each NF still sees its packets in burst order and every copy is
        still taken from version 1 after the previous stage, so the
        outputs are those of the packets run one at a time.
        """
        pkts = list(packets)
        self.processed += len(pkts)
        nfs = self.nfs
        # Per packet: version -> buffer, version 1 the packet itself.
        flights = [{ORIGINAL_VERSION: pkt} for pkt in pkts]
        keys = [pkt.parse() for pkt in pkts]
        shares = None
        if self._replicas:
            digests = [key_digest(key) for key in keys]
            # Each instance's share of the burst, once per count.
            shares = {}
            for count in self._replicas:
                picks = [digest % count for digest in digests]
                shares[count] = [
                    (k, [flight for flight, pick in zip(flights, picks)
                         if pick == k])
                    for k in dict.fromkeys(picks)]

        forget = self._forget
        for copies, entries in self._stages:
            for copy in copies:
                make, version = copy.make, copy.version
                for flight in flights:
                    flight[version] = make(flight[ORIGINAL_VERSION])
            drops = []
            for version, count, labels, entry in entries:
                rule = forget[entry.node.name]
                if count == 1:
                    served = ((nfs[labels[0]], flights),)
                else:
                    served = [(nfs[labels[k]], share)
                              for k, share in shares[count]]
                for nf, share in served:
                    live = [flight for flight in share if not flight[version].nil]
                    if not live:
                        continue
                    taken = [flight[version] for flight in live]
                    if rule:
                        forget_memos(taken, rule)
                    contexts = nf.handle_burst(taken)
                    for flight, ctx in zip(live, contexts):
                        if ctx.dropped:
                            drops.append((flight, version))
            for flight, version in drops:
                flight[version] = flight[version].make_nil()

        plan = self._plan
        # The module global, looked up per call: the lab patches it.
        outputs = [apply_merge_ops(flight, plan) for flight in flights]
        forget_memos(pkts, FORGET_MEMO)
        lost = outputs.count(None)
        self.dropped += lost
        self.emitted += len(outputs) - lost
        return outputs


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
