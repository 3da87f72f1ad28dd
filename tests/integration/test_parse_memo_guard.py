"""The parse memo is never stale: a guard armed on both planes.

The classifier's one walk (``Packet.parse``) fills a memo that copies
inherit and read-only NFs answer from; the compiled graph's per-NF rule,
the header units' movers and the merge drop it where a write could have
moved what it records.  The guard checks every memo still set after
every NF visit and every merge -- on the functional plane and on the DES
-- against the view-chain oracle (``tests/support/packet_reference.py``):
the offsets against ``l3_offset`` / ``l4_protocol`` / the L4 offset /
``payload_offset``, the key against ``flow_key`` and the fields its walk
read.  It runs over the committed fuzz corpus and over a Hypothesis
stream of generated cases.

``regression-merge-vlan-splice-memo.json`` (fuzz seed 0, case 2,
shrunk to ``caching | proxy | vlan-push``) is the case a memo dropped
only after the whole merge got wrong: the merge's VLAN splice moved L3
from 14 to 18 while the memo still said 14, so the IPv4 checksum
re-derive wrote at the old offset and the output differed at byte 24.
Since a unit's mover drops the memo as it moves the bytes, the VPN, the
VLAN and the tunnel NFs take their packets with the classifier's memo.
"""

import contextlib
import glob
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nfs  # noqa: F401 - fills the NF registry
from repro.check import FuzzCase, run_case
from repro.check.differential import FUZZ_BURSTS
from repro.check.generator import CaseGenerator
from repro.core import Orchestrator, Policy
from repro.core.closures import CompiledGraph
from repro.dataplane import FunctionalDataplane, NFPServer, functional, runtimes
from repro.net.headers import PROTO_TCP, PROTO_UDP
from repro.net.packet import FORGET_KEY, KEEP_MEMO
from repro.nfs.base import NetworkFunction, nf_class, registered_kinds
from repro.sim import DEFAULT_PARAMS, Environment
from repro.traffic import FlowGenerator
from repro.traffic.generator import feed_list

ref = pytest.importorskip(
    "tests.support.packet_reference",
    reason="run from the repo root (python -m pytest)")

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")
REGRESSION = os.path.join(CORPUS_DIR, "regression-merge-vlan-splice-memo.json")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


class _Guard:
    """Counts the memos it checked; lists the stale ones."""

    def __init__(self):
        self.checked = 0
        self.stale = []

    def check(self, pkt, where: str) -> None:
        if pkt is None or pkt.nil:
            return
        offsets, key = pkt.memo_offsets, pkt.memo_key
        if offsets is None and key is None:
            return
        self.checked += 1
        try:
            if offsets is not None:
                want = (ref.l3_offset(pkt), ref.l4_protocol(pkt),
                        ref._l4_offset(pkt), ref.payload_offset(pkt))
                if offsets != want:
                    self.stale.append((where, "offsets", offsets, want))
            if key is not None:
                ip = ref.ipv4(pkt)
                ported = (ref.l4_protocol(pkt) in (PROTO_TCP, PROTO_UDP)
                          and not (ip.more_fragments or ip.fragment_offset))
                want = (ref.flow_key(pkt), 4 if ported else 2)
                if key != want:
                    self.stale.append((where, "key", key, want))
        except ValueError as exc:
            self.stale.append((where, "memo on a frame the walk refuses",
                               (offsets, key), str(exc)))


@contextlib.contextmanager
def memo_guard():
    """Arm the guard: after each ``handle_burst`` (every class that
    defines one) and each merge both planes call, check the packets."""
    guard = _Guard()
    saved = []
    owners = {NetworkFunction} | {
        cls for kind in registered_kinds() for cls in nf_class(kind).__mro__
        if "handle_burst" in cls.__dict__}
    for cls in owners:
        def handle_burst(self, pkts, _original=cls.__dict__["handle_burst"]):
            contexts = _original(self, pkts)
            for pkt in pkts:
                guard.check(pkt, f"after {self.name}")
            return contexts
        saved.append((cls, "handle_burst", cls.__dict__["handle_burst"]))
        cls.handle_burst = handle_burst
    for module in (functional, runtimes):
        def merge(versions, ops, telemetry=None,
                  _original=module.apply_merge_ops):
            merged = _original(versions, ops, telemetry)
            guard.check(merged, "after the merge")
            return merged
        saved.append((module, "apply_merge_ops", module.apply_merge_ops))
        module.apply_merge_ops = merge
    try:
        yield guard
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


@pytest.mark.parametrize(
    "path", CORPUS, ids=[os.path.splitext(os.path.basename(p))[0] for p in CORPUS])
def test_no_memo_goes_stale_over_the_corpus(path):
    case = FuzzCase.load(path)
    burst = FUZZ_BURSTS[CORPUS.index(path) % len(FUZZ_BURSTS)]
    with memo_guard() as guard:
        outcome = run_case(case, include_des=True, burst=burst)
    assert outcome.ok, f"{outcome.kind}: {outcome.detail}"
    assert guard.stale == []


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), index=st.integers(0, 1_000),
       burst=st.sampled_from(FUZZ_BURSTS), instances=st.sampled_from([1, 2]))
def test_no_memo_goes_stale_over_a_generated_stream(seed, index, burst,
                                                    instances):
    case = CaseGenerator(seed=seed, packets_per_case=8).generate(index)
    with memo_guard() as guard:
        outcome = run_case(case, include_des=True, burst=burst,
                           instances=instances)
    assert guard.stale == []
    assert outcome.ok, f"{outcome.kind}: {outcome.detail}"


@pytest.mark.parametrize("instances", [1, 2])
def test_the_vlan_splice_regression_stays_green(instances):
    """The shrunk repro, as the corpus seeds run: all three planes, the
    profile oracle armed, and the scaled axis."""
    outcome = run_case(FuzzCase.load(REGRESSION), include_des=True,
                       audit_profiles=instances == 1, instances=instances)
    assert outcome.ok, f"{outcome.kind}: {outcome.detail}"
    assert outcome.graph_desc == "(caching | proxy[v2] | vlan-push[v3])"


def test_the_guard_checks_every_visit_and_merge_on_both_planes():
    """Not vacuous: on the west-east chain every packet's copy and
    version 1 reach their NFs and the merge with a memo, on both planes:
    per packet, three visits (the IDS and the monitor on version 1, the
    load balancer on its copy) and one merge, each plane."""
    graph = Orchestrator().compile(
        Policy.from_chain(["ids", "monitor", "loadbalancer"])).graph
    packets = FlowGenerator(num_flows=6, seed=3).packets(10)
    with memo_guard() as guard:
        FunctionalDataplane(graph).process_many(
            [pkt.full_copy(1) for pkt in packets])
        assert guard.checked == 4 * len(packets)
        env = Environment()
        server = NFPServer(env, DEFAULT_PARAMS)
        server.deploy(Orchestrator().deploy(
            Policy.from_chain(["ids", "monitor", "loadbalancer"])))
        feed_list(env, server.inject, packets, 5.0)
        env.run()
    assert server.emitted == len(packets)
    assert guard.checked == 2 * 4 * len(packets)
    assert guard.stale == []


def test_a_packet_leaves_each_plane_without_its_memo():
    """What a plane hands back carries no memo, so a caller's own writes
    (here a NAT run on the output) cannot leave a stale key behind."""
    graph = Orchestrator().compile(Policy.from_chain(["monitor"])).graph
    packets = FlowGenerator(num_flows=6, seed=3).packets(8)
    outputs = FunctionalDataplane(graph).process_many(packets)
    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS)
    server.keep_packets = True
    server.deploy(Orchestrator().deploy(Policy.from_chain(["monitor"])))
    feed_list(env, server.inject, [pkt.full_copy(1) for pkt in packets], 5.0)
    env.run()
    assert len(server.emitted_packets) == len(packets)
    nat = nf_class("nat")()
    for pkt in outputs + server.emitted_packets:
        assert pkt.memo_offsets is None and pkt.memo_key is None
        nat.handle(pkt)
        assert pkt.flow_key() == ref.flow_key(pkt)


def test_the_guard_sees_a_stale_memo():
    """The guard has teeth: a memo left behind by a write it did not
    hear of is reported."""
    pkt = FuzzCase.load(REGRESSION).packets[0].build()
    pkt.parse()
    pkt.buf[12:12] = b"\x81\x00\x00\x07"  # a VLAN tag, behind the memo's back
    guard = _Guard()
    guard.check(pkt, "by hand")
    assert [entry[1] for entry in guard.stale] == ["offsets"]


@pytest.mark.parametrize("kind, rule", [
    ("monitor", KEEP_MEMO), ("ids", KEEP_MEMO), ("firewall", KEEP_MEMO),
    ("compression", KEEP_MEMO), ("loadbalancer", FORGET_KEY),
    ("nat", FORGET_KEY), ("proxy", FORGET_KEY), ("vpn", KEEP_MEMO),
    ("vpn-decrypt", KEEP_MEMO), ("vlan-push", KEEP_MEMO),
    ("vxlan-decap", KEEP_MEMO),
])
def test_the_compiled_graph_derives_each_rule_from_the_profile(kind, rule):
    """An adder or remover of a header unit keeps the memo: its mover
    drops it when the bytes move, after the NF's reads."""
    graph = Orchestrator().compile(Policy.from_chain([kind])).graph
    assert CompiledGraph(graph).forget == {kind: rule}
