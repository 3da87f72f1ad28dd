"""Unit tests for policy rules, the DSL parser, and conflict detection."""

import pytest

from repro.core import (
    NFSpec,
    OrderRule,
    Policy,
    PolicyConflictError,
    PolicySyntaxError,
    Position,
    PositionRule,
    PriorityRule,
    check_policy,
    compile_policy,
    format_policy,
    parse_policy,
)


# ------------------------------------------------------------------ rules
def test_rules_reject_self_reference():
    with pytest.raises(ValueError):
        OrderRule("fw", "fw")
    with pytest.raises(ValueError):
        PriorityRule("fw", "fw")


def test_position_parse():
    assert PositionRule("vpn", "first").position is Position.FIRST
    assert PositionRule("vpn", Position.LAST).position is Position.LAST
    with pytest.raises(ValueError):
        PositionRule("vpn", "middle")


def test_rule_equality():
    assert OrderRule("a", "b") == OrderRule("a", "b")
    assert OrderRule("a", "b") != OrderRule("b", "a")
    assert PriorityRule("a", "b") == PriorityRule("a", "b")
    assert PositionRule("a", "first") == PositionRule("a", Position.FIRST)


# ----------------------------------------------------------------- policy
def test_policy_builder_api():
    policy = (
        Policy(name="p")
        .order("vpn", "monitor")
        .priority("ips", "firewall")
        .position("vpn", "first")
    )
    assert len(policy) == 3
    assert policy.nf_names() == {"vpn", "monitor", "ips", "firewall"}
    assert policy.kind_of("ips") == "ips"


def test_policy_explicit_instance_types():
    policy = Policy().declare(NFSpec("fw1", "firewall")).declare(
        NFSpec("fw2", "firewall"))
    policy.order("fw1", "fw2")
    assert policy.kind_of("fw1") == "firewall"
    assert policy.kind_of("fw2") == "firewall"


def test_policy_redeclare_conflicting_kind():
    policy = Policy().declare(NFSpec("x", "firewall"))
    with pytest.raises(ValueError):
        policy.declare(NFSpec("x", "monitor"))


def test_from_chain_builds_adjacent_orders():
    policy = Policy.from_chain(["a", "b", "c"])
    orders = list(policy.order_rules())
    assert orders == [OrderRule("a", "b"), OrderRule("b", "c")]


def test_from_chain_rejects_duplicates():
    with pytest.raises(ValueError):
        Policy.from_chain(["a", "a"])


def test_policy_add_rejects_garbage():
    with pytest.raises(TypeError):
        Policy().add("not a rule")


# -------------------------------------------------------------------- DSL
def test_parse_paper_table1_policy():
    policy = parse_policy(
        """
        # Table 1, third row
        Position(vpn, first)
        Order(fw, before, lb)
        Order(monitor, before, lb)
        """
    )
    assert len(policy) == 3
    assert {type(r).__name__ for r in policy.rules} == {"PositionRule", "OrderRule"}


def test_parse_priority_and_declarations():
    policy = parse_policy(
        """
        NF ips1: ips
        Priority(ips1 > firewall)
        """
    )
    assert policy.kind_of("ips1") == "ips"
    rule = next(policy.priority_rules())
    assert (rule.high, rule.low) == ("ips1", "firewall")


def test_parse_assign_translates_to_orders():
    policy = parse_policy(
        """
        Assign(vpn, 1)
        Assign(fw, 3)
        Assign(monitor, 2)
        """
    )
    orders = [(r.before, r.after) for r in policy.order_rules()]
    assert orders == [("vpn", "monitor"), ("monitor", "fw")]


def test_parse_assign_duplicate_index_rejected():
    with pytest.raises(ValueError):
        parse_policy("Assign(a, 1)\nAssign(b, 1)")


def test_parse_reports_line_numbers():
    with pytest.raises(PolicySyntaxError) as err:
        parse_policy("Order(a, before, b)\nOrdr(a, b)")
    assert err.value.lineno == 2


def test_parse_self_order_rejected_with_location():
    with pytest.raises(PolicySyntaxError):
        parse_policy("Order(a, before, a)")


def test_format_policy_roundtrip():
    text = """
    NF fw1: firewall
    Order(fw1, before, monitor)
    Priority(ips > fw1)
    Position(vpn, first)
    """
    policy = parse_policy(text)
    reparsed = parse_policy(format_policy(policy))
    assert reparsed.rules == policy.rules
    assert reparsed.instances == policy.instances


def test_comments_and_blank_lines_ignored():
    policy = parse_policy("# nothing\n\n   \nOrder(a, before, b) # tail comment")
    assert len(policy) == 1


# -------------------------------------------------------------- conflicts
def test_order_cycle_detected():
    policy = Policy().order("a", "b").order("b", "c").order("c", "a")
    report = check_policy(policy)
    assert not report.ok
    assert any("cycle" in e for e in report.errors)
    with pytest.raises(PolicyConflictError):
        report.raise_on_error()


def test_direct_order_contradiction_is_a_cycle():
    policy = Policy().order("a", "b").order("b", "a")
    assert not check_policy(policy).ok


def test_position_clashes():
    policy = Policy().position("a", "first").position("a", "last")
    assert any("first and last" in e for e in check_policy(policy).errors)

    policy = Policy().position("a", "first").position("b", "first")
    assert any("multiple NFs pinned first" in e for e in check_policy(policy).errors)


def test_order_position_contradiction():
    policy = Policy().position("a", "first").order("b", "a")
    errors = check_policy(policy).errors
    assert any("pinned first but ordered after" in e for e in errors)

    policy = Policy().position("z", "last").order("z", "b")
    errors = check_policy(policy).errors
    assert any("pinned last but ordered before" in e for e in errors)


def test_priority_contradiction():
    policy = Policy().priority("a", "b").priority("b", "a")
    assert check_policy(policy).errors == [
        "Priority rules form a cycle: a -> b -> a"
    ]


def test_priority_three_cycle_is_a_policy_conflict():
    # No two rules contradict each other; the cycle only closes at three.
    policy = Policy()
    for name in "abc":
        policy.declare(NFSpec(name, "firewall"))
    policy.priority("a", "b").priority("b", "c").priority("c", "a")
    with pytest.raises(PolicyConflictError) as caught:
        compile_policy(policy)
    assert caught.value.conflicts == [
        "Priority rules form a cycle: a -> b -> c -> a"
    ]


def test_empty_policy_is_a_policy_conflict():
    # Nothing to place: rejected at the check, not by a later pass.
    assert check_policy(Policy()).errors == ["policy names no NF"]
    with pytest.raises(PolicyConflictError) as caught:
        compile_policy(Policy())
    assert caught.value.conflicts == ["policy names no NF"]


def test_duplicate_priority_warns():
    policy = Policy().priority("a", "b").priority("a", "b")
    report = check_policy(policy)
    assert report.ok
    assert any("duplicate priority" in w for w in report.warnings)


def test_order_plus_priority_warns():
    policy = Policy().order("a", "b").priority("b", "a")
    report = check_policy(policy)
    assert report.ok
    assert any("both Order and Priority" in w for w in report.warnings)


def test_clean_policy_passes():
    policy = Policy.from_chain(["vpn", "monitor", "firewall"])
    report = check_policy(policy)
    assert report.ok and not report.warnings
