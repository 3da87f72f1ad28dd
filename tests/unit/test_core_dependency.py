"""Unit tests for Table 3 (dependency table) and Algorithm 1."""

from repro.core import (
    Action,
    ActionProfile,
    Parallelism,
    Verb,
    can_share_buffer,
    default_action_table,
    identify_parallelism,
)
from repro.net import Field


def profile(name, *actions):
    return ActionProfile(name, actions)


R = lambda f: Action(Verb.READ, f)
W = lambda f: Action(Verb.WRITE, f)
ADD = lambda f: Action(Verb.ADD, f)
RM = lambda f: Action(Verb.REMOVE, f)
DROP = Action(Verb.DROP)


# -------------------------------------------------- Table 3 cell semantics
def test_read_read_no_copy():
    result = identify_parallelism(
        profile("a", R(Field.SIP)), profile("b", R(Field.SIP))
    )
    assert result.classification is Parallelism.NO_COPY


def test_read_write_same_field_needs_copy():
    result = identify_parallelism(
        profile("a", R(Field.SIP)), profile("b", W(Field.SIP))
    )
    assert result.classification is Parallelism.WITH_COPY
    assert result.conflicting_actions == [(R(Field.SIP), W(Field.SIP))]


def test_read_write_different_field_no_copy_op1():
    # OP#1 Dirty Memory Reusing: disjoint fields share one buffer.
    result = identify_parallelism(
        profile("a", R(Field.SIP)), profile("b", W(Field.DIP))
    )
    assert result.classification is Parallelism.NO_COPY


def test_write_read_never_parallelizable():
    # The operator intends NF1's modification to reach NF2 -- even on
    # different... no: same field. Different fields fall into the same
    # gray cell per Algorithm 1 (only R/W and W/W are field-sensitive).
    same = identify_parallelism(
        profile("a", W(Field.SIP)), profile("b", R(Field.SIP))
    )
    assert same.classification is Parallelism.NOT_PARALLELIZABLE
    different = identify_parallelism(
        profile("a", W(Field.SIP)), profile("b", R(Field.DIP))
    )
    assert different.classification is Parallelism.NOT_PARALLELIZABLE


def test_write_write_same_field_copy_different_no_copy():
    same = identify_parallelism(
        profile("a", W(Field.SIP)), profile("b", W(Field.SIP))
    )
    assert same.classification is Parallelism.WITH_COPY
    different = identify_parallelism(
        profile("a", W(Field.SIP)), profile("b", W(Field.DIP))
    )
    assert different.classification is Parallelism.NO_COPY


def test_whole_packet_wildcard_conflicts_everything():
    result = identify_parallelism(
        profile("a", R(Field.WHOLE_PACKET)), profile("b", W(Field.TTL))
    )
    assert result.classification is Parallelism.WITH_COPY


def test_add_by_nf2_needs_copy():
    result = identify_parallelism(
        profile("a", R(Field.SIP)), profile("b", ADD(Field.AH_HEADER))
    )
    assert result.classification is Parallelism.WITH_COPY


def test_add_by_nf1_not_parallelizable():
    # A structural change by NF1 must be visible downstream.
    result = identify_parallelism(
        profile("a", ADD(Field.AH_HEADER)), profile("b", R(Field.SIP))
    )
    assert result.classification is Parallelism.NOT_PARALLELIZABLE


def test_remove_mirrors_add():
    assert identify_parallelism(
        profile("a", W(Field.SIP)), profile("b", RM(Field.AH_HEADER))
    ).classification is Parallelism.WITH_COPY
    assert identify_parallelism(
        profile("a", RM(Field.AH_HEADER)), profile("b", W(Field.SIP))
    ).classification is Parallelism.NOT_PARALLELIZABLE


def test_drop_then_reader_is_free_parallelism():
    # Fig. 1's firewall || monitor case.
    result = identify_parallelism(
        profile("fw", R(Field.SIP), DROP), profile("mon", R(Field.SIP))
    )
    assert result.classification is Parallelism.NO_COPY


def test_drop_then_writer_not_parallelizable():
    # Keeps Fig. 13's north-south load balancer sequential after the
    # firewall: a writer must not act on a packet that would have been
    # dropped upstream.
    result = identify_parallelism(
        profile("fw", DROP), profile("lb", W(Field.DIP))
    )
    assert result.classification is Parallelism.NOT_PARALLELIZABLE


def test_writer_then_dropper_no_copy():
    result = identify_parallelism(
        profile("a", W(Field.TTL)), profile("b", DROP)
    )
    assert result.classification is Parallelism.NO_COPY


def test_drop_drop_no_copy():
    result = identify_parallelism(profile("a", DROP), profile("b", DROP))
    assert result.classification is Parallelism.NO_COPY


def test_not_parallelizable_short_circuits_conflicts():
    result = identify_parallelism(
        profile("a", W(Field.SIP), ADD(Field.AH_HEADER)),
        profile("b", R(Field.SIP)),
    )
    assert not result.parallelizable
    assert result.conflicting_actions == []


def test_empty_profiles_trivially_parallel():
    result = identify_parallelism(profile("a"), profile("b"))
    assert result.classification is Parallelism.NO_COPY


# ------------------------------------------------------ buffer sharing
def test_can_share_buffer_read_only_pair():
    table = default_action_table()
    assert can_share_buffer(table.fetch("monitor"), table.fetch("firewall"))


def test_cannot_share_buffer_reader_writer_same_field():
    table = default_action_table()
    assert not can_share_buffer(table.fetch("monitor"), table.fetch("loadbalancer"))


def test_can_share_buffer_disjoint_writer():
    # TTL writer and payload reader touch disjoint bytes, but Algorithm 1
    # classifies (W, R) as not parallelizable regardless of field -- so
    # buffer sharing (which probes both directions) must refuse.
    assert not can_share_buffer(
        profile("fwd", W(Field.TTL)), profile("dpi", R(Field.PAYLOAD))
    )


# ------------------------------------------ paper-level sanity (Table 2)
def test_paper_nat_loadbalancer_example():
    # §4.1's motivating conflict: both modify the destination IP.
    table = default_action_table()
    result = identify_parallelism(table.fetch("nat"), table.fetch("loadbalancer"))
    # NAT writes sip/dip/ports; LB reads ports -> (W, R) -> sequential.
    assert result.classification is Parallelism.NOT_PARALLELIZABLE


def test_paper_monitor_lb_copy():
    table = default_action_table()
    result = identify_parallelism(table.fetch("monitor"), table.fetch("loadbalancer"))
    assert result.classification is Parallelism.WITH_COPY
    fields = {a1.field for a1, _ in result.conflicting_actions}
    assert fields == {Field.SIP, Field.DIP}
