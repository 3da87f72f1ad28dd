"""The compiled merge plan against the per-op interpreter it replaced.

``apply_merge_ops`` executes a :class:`~repro.dataplane.merging.MergePlan`
-- byte ranges, adjacent ones coalesced, each header resolved once per
version.  ``tests/support/merge_reference.py`` is the loop it replaced,
one declared operation at a time.  Random operation lists over packets
from the fuzzer's adversarial generator, bent the ways NFs and copies
bend them, must come out the same: the same bytes, the same ``None``,
or the same exception type.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.generator import CaseGenerator
from repro.core.graph import MergeOp, MergeOpKind
from repro.dataplane.merging import MergeError, MergePlan, apply_merge_ops
from repro.net import Field, insert_ah, insert_vlan
from repro.net.encap import vxlan_encap
from repro.net.packet import Packet, PacketMeta
from repro.telemetry.hooks import TelemetryHub
from tests.support.merge_reference import apply_merge_ops_reference

GENERATOR = CaseGenerator(seed=23)
MODIFY_FIELDS = [Field.SIP, Field.DIP, Field.SPORT, Field.DPORT, Field.TTL,
                 Field.SMAC, Field.DMAC, Field.DSCP, Field.PAYLOAD]
UNITS = [Field.AH_HEADER, Field.VLAN_HEADER]
#: How a collected version differs from the packet it was copied from.
SHAPES = ["full", "header", "vlan", "ah", "vxlan", "rewritten", "cut", "nil"]
#: Prefix lengths a "cut" version is tried at: every one through the
#: tallest header stack the shapes build, then the whole frame.
CUTS = list(range(0, 101))


@st.composite
def merge_ops(draw, versions):
    """Runs of modifies from one source (what a writer NF declares, and
    what coalesces), unit operations between them, then a few swaps."""
    # A source that was never collected is the rare case, not every op's.
    pool = versions + [1] + ([max(versions) + 1] if draw(st.integers(0, 9)) == 0
                             else [])
    sources = st.sampled_from(pool)
    ops = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 3)) == 0:
            unit = draw(st.sampled_from(UNITS))
            ops.append(MergeOp(MergeOpKind.ADD, unit, draw(sources))
                       if draw(st.booleans())
                       else MergeOp(MergeOpKind.REMOVE, unit))
            continue
        src = draw(sources)
        fields = draw(st.lists(st.sampled_from(MODIFY_FIELDS),
                               min_size=1, max_size=4))
        ops.extend(MergeOp(MergeOpKind.MODIFY, field, src) for field in fields)
    for _ in range(draw(st.integers(0, 2))):
        i, j = (draw(st.integers(0, len(ops) - 1)) for _ in range(2))
        ops[i], ops[j] = ops[j], ops[i]
    return ops


def _rewrite(pkt, rng):
    """What writer NFs leave behind: every field a modify can carry gets
    a new value (where the frame is a plain Ethernet/IPv4/L4 stack)."""
    buf = pkt.buf
    for offset in (*range(0, 12), 15, 22, *range(26, 38), *range(54, 60)):
        if offset < len(buf):
            buf[offset] = rng.randrange(256) & (0xFC if offset == 15 else 0xFF)


def _shaped(spec, shape, version, rng, cut=None):
    """One collected version: ``spec`` built afresh, rewritten, bent."""
    pkt = spec.build()
    pkt.meta = PacketMeta(mid=1, pid=spec.ident, version=version)
    if shape == "nil":
        return pkt.make_nil()
    if shape != "full":
        _rewrite(pkt, rng)
    if shape == "vlan":
        insert_vlan(pkt, rng.randrange(1, 4095))
    elif shape == "ah":
        insert_ah(pkt, spi=rng.randrange(1, 99), seq=rng.randrange(1, 99),
                  icv_key=bytes(16))
    elif shape == "vxlan":
        vxlan_encap(pkt, rng.randrange(1, 99), "192.0.2.1", "192.0.2.2")
    elif shape == "header":
        pkt = pkt.header_copy(version)
    elif shape == "cut":
        pkt = Packet(pkt.buf[:cut], meta=pkt.meta, wire_len=pkt.wire_len)
    return pkt


def _outcome(merge, versions, ops, hub=None):
    try:
        merged = merge(versions, ops, telemetry=hub)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return ("raise", type(exc))
    if merged is None:
        return ("nil",)
    assert merged is versions[1]
    return ("ok", bytes(merged.buf), merged.wire_len)


def _counters(hub):
    return {name: c.value for name, c in hub.registry.counters.items()}


def _agree(spec, shapes, ops, seed, cut):
    def collected():
        rng = random.Random(seed)
        return {version: _shaped(spec, shape, version, rng, cut)
                for version, shape in shapes.items()}

    plan_hub, reference_hub = TelemetryHub(), TelemetryHub()
    got = _outcome(apply_merge_ops, collected(), MergePlan(ops), plan_hub)
    want = _outcome(apply_merge_ops_reference, collected(), ops, reference_hub)
    assert got == want, (shapes, ops, cut)
    if got[0] == "ok":
        # One count per *declared* op, coalesced or not.
        assert _counters(plan_hub) == _counters(reference_hub)
    return got[0]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), draw_seed=st.integers(0, 10_000),
       copies=st.integers(1, 4))
def test_plan_output_equals_per_op_reference(data, draw_seed, copies):
    spec = random.Random(draw_seed).choice(
        GENERATOR._draw_packets(random.Random(draw_seed)))
    versions = list(range(2, 2 + copies))
    shapes = {1: data.draw(st.sampled_from(SHAPES[:-1] + SHAPES[:2]))}
    for version in versions:
        shapes[version] = data.draw(st.sampled_from(SHAPES))
    ops = data.draw(merge_ops(versions))
    cuts = CUTS if "cut" in shapes.values() else [None]
    for cut in cuts:
        _agree(spec, shapes, ops, draw_seed, cut)


def test_the_generator_reaches_every_outcome():
    """The property is not vacuous: all three outcomes occur, and so do
    coalesced plans and skipped operations."""
    spec = GENERATOR._draw_packets(random.Random(1))[0]
    swap = [MergeOp(MergeOpKind.MODIFY, Field.DIP, 2),
            MergeOp(MergeOpKind.MODIFY, Field.SIP, 2)]
    assert len(MergePlan(swap).steps) == 1
    assert _agree(spec, {1: "full", 2: "rewritten"}, swap, 5, None) == "ok"
    assert _agree(spec, {1: "full", 2: "nil"}, swap, 5, None) == "nil"
    # The writer's copy cannot parse the field: both ops skipped together.
    assert _agree(spec, {1: "full", 2: "cut"}, swap, 5, 20) == "ok"
    # The base cannot take it: refused, the same way.
    assert _agree(spec, {1: "cut", 2: "rewritten"}, swap, 5, 20) == "raise"
    assert _agree(spec, {1: "full"}, swap, 5, None) == "raise"


def test_a_unit_operation_forgets_resolved_offsets():
    """Headers move under an add or a remove: what was resolved before
    it must be resolved again after it, on every anchor."""
    spec = GENERATOR._draw_packets(random.Random(2))[0]

    def modify(field, src=2):
        return MergeOp(MergeOpKind.MODIFY, field, src)

    before = [modify(Field.SIP), modify(Field.SPORT), modify(Field.SMAC)]
    after = [modify(Field.DIP), modify(Field.DPORT), modify(Field.DMAC)]
    for unit, tagged in ((Field.VLAN_HEADER, "vlan"), (Field.AH_HEADER, "ah")):
        strip = before + [MergeOp(MergeOpKind.REMOVE, unit)] + after
        assert _agree(spec, {1: tagged, 2: "rewritten"}, strip, 7, None) == "ok"
        splice = before + [MergeOp(MergeOpKind.ADD, unit, 3)] + after
        assert _agree(spec, {1: "full", 2: "rewritten", 3: tagged},
                      splice, 7, None) == "ok"


@pytest.mark.parametrize("op", [MergeOp(MergeOpKind.ADD, Field.VXLAN_HEADER, 2),
                                MergeOp(MergeOpKind.REMOVE, Field.VXLAN_HEADER)])
def test_a_plan_refuses_a_unit_with_no_mover(op):
    """No graph parallelises an encapsulating NF, so a VXLAN stack has
    no merge mover: a plan that declares one is refused when it is
    built, and so is a one-off merge of plain operations."""
    with pytest.raises(MergeError, match="header unit"):
        MergePlan([MergeOp(MergeOpKind.MODIFY, Field.SIP, 2), op])
    versions = {1: GENERATOR._draw_packets(random.Random(3))[0].build()}
    with pytest.raises(MergeError, match="header unit"):
        apply_merge_ops(versions, [op])
