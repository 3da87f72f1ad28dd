"""Batched (vectorized) execution of service graphs.

The hot-path refactor of the reproduction: where
:class:`~repro.dataplane.functional.FunctionalDataplane` walks the graph
object model per packet, this plane processes packet *batches* with

* **batch-wise classification** -- one CT/FT walk per new flow per
  batch: a batch-local memo sits in front of the shared LRU
  :class:`~repro.dataplane.flowsplit.FlowCache`, so repeated flows in a
  burst cost their ``flow_key`` plus one dict probe, and the full
  classify (CT lookup, RSS assignment, closure bind) runs only on a
  cold flow (``ct_walks`` counts those walks);
* **struct-of-arrays metadata** -- the 64-bit MID|PID|version words live
  in a flat :class:`~repro.net.metadata.MetaArray` indexed by batch
  slot; a :class:`~repro.net.packet.PacketMeta` object is materialised
  only for packets that actually leave the plane;
* **precompiled action closures** -- the per-packet inner loop is one
  dict lookup plus one call of the
  :class:`~repro.core.closures.CompiledGraph` closure bound to the
  flow's NF instances at classification time.

Semantics are byte-identical to the functional plane by construction
(the closure reproduces its exact copy/stage/merge order) and verified
continuously by the differential fuzzer's ``--batched`` axis.  PIDs are
allocated per classified packet in arrival order, exactly like the DES
classifier, so emitted metadata words agree with the timed plane too.

Fault injection is out of scope here: the batched plane is the
performance twin of the *healthy* functional semantics.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Union

from ..core.graph import ORIGINAL_VERSION, ServiceGraph
from ..core.tables import ClassificationTable, build_tables
from ..net.metadata import MetaArray, pack_word
from ..net.packet import Packet, PacketMeta
from .chaining import ChainingManager
from .flowsplit import FlowCache, FlowDecision, assign_instances, flow_key
from .functional import _normalize_scale, instantiate_nfs

__all__ = ["BatchedDataplane", "DEFAULT_BATCH_SIZE"]

#: Default packets per batch (mirrors ``SimParams.batch_size``).
DEFAULT_BATCH_SIZE = 32

_PID_MODULUS = 1 << PacketMeta.PID_BITS
_PID_MASK = _PID_MODULUS - 1


class BatchedDataplane:
    """Batch executor with NFP's exact packet semantics.

    One instance runs one compiled graph, installed through a private
    :class:`ChainingManager` under ``match`` (wildcard by default, so
    every packet classifies -- the same effective behaviour as the
    functional plane, which skips classification entirely).
    """

    def __init__(
        self,
        graph: ServiceGraph,
        scale: Union[int, Mapping[str, int], None] = None,
        mid: int = 1,
        match: object = ClassificationTable.WILDCARD,
        batch_size: int = DEFAULT_BATCH_SIZE,
        flow_cache_size: int = 4096,
        nf_instances: Optional[Dict[str, object]] = None,
        telemetry=None,
    ):
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        self.graph = graph
        self.mid = mid
        self.batch_size = batch_size
        self.telemetry = telemetry
        self.scale = _normalize_scale(graph, scale)
        self._scaled = {n: c for n, c in self.scale.items() if c > 1}
        self.nfs = nf_instances or instantiate_nfs(graph, scale=self.scale)
        self.chaining = ChainingManager()
        self.flow_cache = FlowCache(flow_cache_size)
        self.chaining.on_install(self.flow_cache.invalidate)
        self.chaining.install(build_tables(graph, mid, match))
        from ..core.closures import CopyCounters

        self.counters = CopyCounters()
        #: SoA metadata words for the batch in flight, by batch slot.
        self.meta = MetaArray()
        #: MID and version are constant for the plane's lifetime, so the
        #: per-packet word is one shift+or over this template (validated
        #: once here instead of per packet).
        self._word_template = pack_word(mid, 0, ORIGINAL_VERSION)
        self._next_pid = 0
        #: Shared runner for keyless traffic (ICMP, fragments, non-IP):
        #: such packets pin to instance 0 everywhere, so one bound
        #: closure serves them all.
        self._keyless: Optional[FlowDecision] = None
        self.processed = 0
        self.emitted = 0
        self.dropped = 0
        self.no_match = 0
        #: Full classify walks (CT lookup + RSS + closure bind); the
        #: amortization claim is ``ct_walks`` ≈ distinct flows, not
        #: packets.
        self.ct_walks = 0

    # -------------------------------------------------------- classification
    def _classify_flow(self, pkt: Packet, key) -> Optional[FlowDecision]:
        """The cold-flow path: one full CT/FT walk plus closure bind."""
        self.ct_walks += 1
        try:
            five = pkt.five_tuple()
        except ValueError:
            five = None
        entry = self.chaining.classify(five)
        if entry is None:
            return None
        assignment = assign_instances(key, self._scaled)
        compiled = self.chaining.compiled_for(entry.mid)
        runner = compiled.bind(self.nfs, self.scale, assignment, self.counters)
        return FlowDecision(entry, self.chaining.graph_for(entry.mid),
                            assignment, runner)

    def _decide(self, pkt: Packet, key) -> Optional[FlowDecision]:
        """Flow decision via the LRU cache (keyless traffic bypasses)."""
        if key is None:
            self.flow_cache.bypasses += 1
            if self._keyless is None:
                self._keyless = self._classify_flow(pkt, None)
            return self._keyless
        decision = self.flow_cache.get(key)
        if decision is None:
            decision = self._classify_flow(pkt, key)
            if decision is not None:
                self.flow_cache.put(key, decision)
        return decision

    # ------------------------------------------------------------ execution
    def process_batch(self, packets: List[Packet]) -> List[Optional[Packet]]:
        """Run one batch; the result list aligns with the input batch.

        ``None`` marks a packet that was dropped (or failed to classify).
        Packets execute in batch order, so per-flow and per-NF-instance
        arrival order equals injection order -- the same order every
        scalar plane observes.
        """
        words = self.meta
        words.clear()
        append_word = words.words.append
        memo: Dict[object, Optional[FlowDecision]] = {}
        decisions: List[Optional[FlowDecision]] = []
        add_decision = decisions.append
        telemetry = self.telemetry
        count_pins = (
            self._scaled and telemetry is not None and telemetry.enabled
        )
        decide = self._decide
        template = self._word_template
        next_pid = self._next_pid
        no_match = 0
        for pkt in packets:
            key = flow_key(pkt)
            if key is None and count_pins:
                telemetry.inc("rss.pinned_flows")
            try:
                decision = memo[key]
            except KeyError:
                decision = decide(pkt, key)
                memo[key] = decision
            if decision is None:
                no_match += 1
                append_word(0)
            else:
                next_pid = (next_pid + 1) % _PID_MODULUS
                append_word(template | (next_pid << 4))
            add_decision(decision)
        self.processed += len(packets)
        self.no_match += no_match
        self._next_pid = next_pid

        word_arr = words.words
        outputs: List[Optional[Packet]] = []
        emit = outputs.append
        mid = self.mid
        emitted = dropped = 0
        for index, pkt in enumerate(packets):
            decision = decisions[index]
            if decision is None:
                emit(None)
                continue
            merged = decision.runner(pkt)
            if merged is None:
                dropped += 1
                emit(None)
            else:
                # Materialise the PacketMeta straight from the SoA word;
                # version is always 1 here (the classifier's stamp) and
                # the runner already merged every copy back down.
                merged.meta = PacketMeta(
                    mid, (word_arr[index] >> 4) & _PID_MASK, 1)
                emitted += 1
                emit(merged)
        self.emitted += emitted
        self.dropped += dropped
        return outputs

    def process_many(
        self, packets: Iterable[Packet], batch_size: Optional[int] = None
    ) -> List[Optional[Packet]]:
        """Chunk a stream into batches and process each in turn."""
        size = batch_size or self.batch_size
        stream = list(packets)
        outputs: List[Optional[Packet]] = []
        for start in range(0, len(stream), size):
            outputs.extend(self.process_batch(stream[start : start + size]))
        return outputs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchedDataplane({self.graph.name!r}, batch={self.batch_size}, "
            f"processed={self.processed}, ct_walks={self.ct_walks})"
        )
