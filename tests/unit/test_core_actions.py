"""Unit tests for the action model and the Table 2 action table."""

import pytest

from repro.core import (
    Action,
    ActionProfile,
    ActionTable,
    TABLE2_ROWS,
    Verb,
    default_action_table,
)
from repro.net import Field


# ---------------------------------------------------------------- actions
def test_drop_takes_no_field():
    drop = Action(Verb.DROP)
    assert drop.field is None
    with pytest.raises(ValueError):
        Action(Verb.DROP, Field.SIP)


def test_non_drop_requires_field():
    with pytest.raises(ValueError):
        Action(Verb.READ)


def test_action_equality_and_hash():
    assert Action(Verb.READ, Field.SIP) == Action(Verb.READ, Field.SIP)
    assert Action(Verb.READ, Field.SIP) != Action(Verb.WRITE, Field.SIP)
    assert len({Action(Verb.READ, Field.SIP), Action(Verb.READ, Field.SIP)}) == 1


def test_structural_verbs():
    assert Verb.ADD.is_structural and Verb.REMOVE.is_structural
    assert not Verb.READ.is_structural


def test_conflicts_same_field():
    read_sip = Action(Verb.READ, Field.SIP)
    write_sip = Action(Verb.WRITE, Field.SIP)
    write_dip = Action(Verb.WRITE, Field.DIP)
    assert read_sip.conflicts_same_field(write_sip)
    assert not read_sip.conflicts_same_field(write_dip)
    assert not Action(Verb.DROP).conflicts_same_field(write_sip)


# --------------------------------------------------------------- profiles
def test_profile_queries():
    profile = ActionProfile(
        "test",
        [
            Action(Verb.READ, Field.SIP),
            Action(Verb.WRITE, Field.DIP),
            Action(Verb.ADD, Field.AH_HEADER),
            Action(Verb.DROP),
        ],
    )
    assert profile.reads == {Field.SIP}
    assert profile.writes == {Field.DIP}
    assert profile.adds == {Field.AH_HEADER}
    assert profile.may_drop
    assert not profile.is_read_only


def test_read_only_profile():
    profile = ActionProfile("ro", [Action(Verb.READ, Field.SIP), Action(Verb.DROP)])
    assert profile.is_read_only  # dropping does not modify the packet


def test_action_pairs_cross_product():
    a = ActionProfile("a", [Action(Verb.READ, Field.SIP), Action(Verb.DROP)])
    b = ActionProfile("b", [Action(Verb.WRITE, Field.SIP)])
    pairs = list(a.action_pairs(b))
    assert len(pairs) == 2
    assert all(p[1] == Action(Verb.WRITE, Field.SIP) for p in pairs)


def test_profile_share_validation():
    with pytest.raises(ValueError):
        ActionProfile("x", [], deployment_share=1.5)
    with pytest.raises(ValueError):
        ActionProfile("", [])


# ----------------------------------------------------------- action table
def test_default_table_has_all_table2_rows():
    table = default_action_table()
    for name in TABLE2_ROWS:
        assert name in table
    assert len(table) == len(TABLE2_ROWS)


def test_table2_profiles_match_paper_rows():
    table = default_action_table()
    firewall = table.fetch("firewall")
    assert firewall.reads == {Field.SIP, Field.DIP, Field.SPORT, Field.DPORT}
    assert firewall.may_drop and not firewall.writes
    assert firewall.deployment_share == pytest.approx(0.26)

    nids = table.fetch("nids")
    assert Field.PAYLOAD in nids.reads and not nids.may_drop

    lb = table.fetch("loadbalancer")
    assert lb.writes == {Field.SIP, Field.DIP}
    assert lb.reads >= {Field.SPORT, Field.DPORT}

    vpn = table.fetch("vpn")
    assert vpn.writes == {Field.PAYLOAD}
    assert vpn.adds == {Field.AH_HEADER}

    nat = table.fetch("nat")
    assert nat.writes == {Field.SIP, Field.DIP, Field.SPORT, Field.DPORT}

    monitor = table.fetch("monitor")
    assert monitor.is_read_only and not monitor.may_drop

    shaper = table.fetch("shaper")
    assert not shaper.actions  # touches nothing


def test_fetch_unknown_nf():
    with pytest.raises(KeyError, match="no registered action profile"):
        default_action_table().fetch("hologram")


def test_register_refuses_silent_overwrite():
    table = default_action_table()
    clone = ActionProfile("firewall", [Action(Verb.DROP)])
    with pytest.raises(ValueError):
        table.register(clone)
    table.register(clone, replace=True)
    assert table.fetch("firewall").actions == frozenset({Action(Verb.DROP)})


def test_register_case_insensitive_lookup():
    table = ActionTable()
    table.register(ActionProfile("MyNF", [Action(Verb.DROP)]))
    assert "mynf" in table
    assert table.fetch("MYNF").may_drop
