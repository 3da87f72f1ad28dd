"""Edge cases of the §5.3 MO merge process (``dataplane/merging.py``).

The headline paths (one writer per field, single AH splice) are covered
by the functional-dataplane tests; these pin down the corners the
differential fuzzer leans on: add-then-remove of the same header unit,
nil branches, replace-in-place splices, and the error surface for
malformed merge sets.
"""

import pytest

from repro.core.graph import MergeOp, MergeOpKind
from repro.dataplane.merging import MergeError, MergePlan, apply_merge_ops
from repro.net import Field, build_packet, insert_ah
from repro.net.packet import PacketMeta
from repro.telemetry.hooks import TelemetryHub

KEY = b"k" * 16


def _base(size=128):
    pkt = build_packet(size=size)
    pkt.meta = PacketMeta(mid=3, pid=9, version=1)
    return pkt


def test_add_then_remove_same_header_unit_roundtrips():
    # One branch adds the AH, a later op removes it: the output must be
    # byte-identical to the input, with length/protocol/checksum restored.
    base = _base()
    before = bytes(base.buf)
    wire_len = base.wire_len
    v2 = base.full_copy(2)
    insert_ah(v2, spi=7, seq=1, icv_key=KEY)

    merged = apply_merge_ops(
        {1: base, 2: v2},
        [
            MergeOp(MergeOpKind.ADD, Field.AH_HEADER, 2),
            MergeOp(MergeOpKind.REMOVE, Field.AH_HEADER),
        ],
    )
    assert merged is base
    assert not merged.has_ah
    assert bytes(merged.buf) == before
    assert merged.wire_len == wire_len


def test_remove_then_add_same_header_unit_keeps_new_ah():
    # The symmetric order: strip the existing AH, then splice a fresh
    # one from a branch.  The branch's AH must win.
    base = _base()
    insert_ah(base, spi=1, seq=1, icv_key=KEY)
    v2 = base.full_copy(2)
    ah = v2.ah
    ah.seq = 99

    merged = apply_merge_ops(
        {1: base, 2: v2},
        [
            MergeOp(MergeOpKind.REMOVE, Field.AH_HEADER),
            MergeOp(MergeOpKind.ADD, Field.AH_HEADER, 2),
        ],
    )
    assert merged.has_ah
    assert merged.ah.seq == 99


def test_add_onto_existing_ah_replaces_in_place():
    # A second VPN hop refreshes the AH on its copy; the splice must
    # overwrite the existing unit, not stack another header.
    base = _base()
    insert_ah(base, spi=1, seq=5, icv_key=KEY)
    length_before = len(base.buf)
    v2 = base.full_copy(2)
    ah = v2.ah
    ah.seq = 42

    merged = apply_merge_ops(
        {1: base, 2: v2}, [MergeOp(MergeOpKind.ADD, Field.AH_HEADER, 2)]
    )
    assert len(merged.buf) == length_before
    assert merged.ah.seq == 42


def test_nil_branch_makes_merge_yield_none():
    base = _base()
    v2 = base.full_copy(2).make_nil()
    assert apply_merge_ops({1: base, 2: v2}, []) is None


def test_nil_version_one_makes_merge_yield_none():
    base = _base()
    v2 = base.full_copy(2)
    assert apply_merge_ops({1: base.make_nil(), 2: v2}, []) is None


def test_nil_wins_even_when_ops_reference_live_versions():
    # A drop on any branch must suppress the whole output, regardless
    # of pending modifications carried by other branches.
    base = _base()
    v2 = base.full_copy(2)
    v2.ipv4.ttl = 3
    v3 = base.full_copy(3).make_nil()
    ops = [MergeOp(MergeOpKind.MODIFY, Field.TTL, 2)]
    assert apply_merge_ops({1: base, 2: v2, 3: v3}, ops) is None


def test_merge_requires_version_one():
    base = _base()
    with pytest.raises(MergeError, match="version 1 missing"):
        apply_merge_ops({2: base.full_copy(2)}, [])


def test_modify_from_uncollected_version_raises():
    base = _base()
    ops = [MergeOp(MergeOpKind.MODIFY, Field.TTL, 4)]
    with pytest.raises(MergeError, match="version 4"):
        apply_merge_ops({1: base}, ops)


def test_remove_without_ah_raises():
    base = _base()
    with pytest.raises(MergeError, match="no AH to remove"):
        apply_merge_ops({1: base}, [MergeOp(MergeOpKind.REMOVE, Field.AH_HEADER)])


def test_add_from_version_without_ah_raises():
    base = _base()
    v2 = base.full_copy(2)
    with pytest.raises(MergeError, match="no AH to splice"):
        apply_merge_ops(
            {1: base, 2: v2}, [MergeOp(MergeOpKind.ADD, Field.AH_HEADER, 2)]
        )


def test_modify_ip_field_refreshes_checksum():
    base = _base()
    v2 = base.full_copy(2)
    v2.ipv4.ttl = 9
    merged = apply_merge_ops(
        {1: base, 2: v2}, [MergeOp(MergeOpKind.MODIFY, Field.TTL, 2)]
    )
    assert merged.ipv4.ttl == 9
    assert merged.ipv4.verify_checksum()


def test_merge_ops_are_counted_per_kind():
    hub = TelemetryHub()
    base = _base()
    v2 = base.full_copy(2)
    v2.ipv4.ttl = 2
    insert_ah(v2, spi=1, seq=1, icv_key=KEY)
    apply_merge_ops(
        {1: base, 2: v2},
        [
            MergeOp(MergeOpKind.MODIFY, Field.TTL, 2),
            MergeOp(MergeOpKind.ADD, Field.AH_HEADER, 2),
            MergeOp(MergeOpKind.REMOVE, Field.AH_HEADER),
        ],
        telemetry=hub,
    )
    assert hub.registry.counter_value("merge.ops.modify") == 1
    assert hub.registry.counter_value("merge.ops.add") == 1
    assert hub.registry.counter_value("merge.ops.remove") == 1


# ------------------------------------------------------------ the merge plan
def _byte_ranges(plan):
    """(src_version, lo, hi) of the plan's byte-range copies, in order."""
    return [(src, lo, hi) for src, resolve, _, _, lo, hi, _ in plan.steps
            if resolve is not None]


def test_adjacent_fields_from_one_version_compile_to_one_range():
    # The west-east graph's two declared ops: IPv4 bytes 12..20 of v2.
    plan = MergePlan([MergeOp(MergeOpKind.MODIFY, Field.DIP, 2),
                      MergeOp(MergeOpKind.MODIFY, Field.SIP, 2)])
    assert _byte_ranges(plan) == [(2, 12, 20)]
    assert plan.counts == (("merge.ops.modify", 2),)


def test_fields_from_different_versions_stay_two_ranges_in_order():
    plan = MergePlan([MergeOp(MergeOpKind.MODIFY, Field.SIP, 2),
                      MergeOp(MergeOpKind.MODIFY, Field.DIP, 3)])
    assert _byte_ranges(plan) == [(2, 12, 16), (3, 16, 20)]


def test_only_touching_ranges_under_one_anchor_coalesce():
    def ranges(*fields):
        return _byte_ranges(MergePlan(
            MergeOp(MergeOpKind.MODIFY, field, 2) for field in fields))

    assert ranges(Field.DMAC, Field.SMAC) == [(2, 0, 12)]
    assert ranges(Field.DPORT, Field.SPORT) == [(2, 0, 4)]
    # TTL (byte 8) does not touch SIP (12..16); SIP twice overlaps itself.
    assert ranges(Field.TTL, Field.SIP) == [(2, 8, 9), (2, 12, 16)]
    assert ranges(Field.SIP, Field.SIP) == [(2, 12, 16), (2, 12, 16)]
    # Same bytes apart in the header, different anchors: never one range.
    assert ranges(Field.SPORT, Field.DMAC) == [(2, 0, 2), (2, 0, 6)]
    # A whole operation between two ranges keeps them apart.
    assert ranges(Field.SIP, Field.DSCP, Field.DIP) == [(2, 12, 16), (2, 16, 20)]


def test_a_coalesced_plan_counts_every_declared_op_in_one_call_per_kind():
    calls = []

    class CountingHub(TelemetryHub):
        def inc(self, name, n=1):
            calls.append((name, n))
            super().inc(name, n)

    hub = CountingHub()
    base = _base()
    v2 = base.full_copy(2)
    v2.ipv4.src_ip, v2.ipv4.dst_ip = "172.16.0.1", "172.16.0.2"
    merged = apply_merge_ops(
        {1: base, 2: v2},
        MergePlan([MergeOp(MergeOpKind.MODIFY, Field.DIP, 2),
                   MergeOp(MergeOpKind.MODIFY, Field.SIP, 2)]),
        telemetry=hub)
    assert (merged.ipv4.src_ip, merged.ipv4.dst_ip) == ("172.16.0.1", "172.16.0.2")
    assert merged.ipv4.verify_checksum()
    assert calls == [("merge.ops.modify", 2)]
    assert hub.registry.counter_value("merge.ops.modify") == 2
