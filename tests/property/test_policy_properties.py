"""Property-based tests for the policy layer (DSL round trip, conflict check)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    NFSpec,
    OrderRule,
    Policy,
    PositionRule,
    PriorityRule,
    PolicyConflictError,
    check_policy,
    compile_policy,
    format_policy,
    parse_policy,
)

nf_names = st.sampled_from(
    ["fw", "mon", "lb", "vpn", "ids", "nat", "gw", "cache"]
)


@st.composite
def policies(draw):
    """Random syntactically-valid policies (possibly conflicting)."""
    policy = Policy(name="prop")
    # Optional explicit declarations.
    for name in draw(st.lists(nf_names, max_size=3, unique=True)):
        policy.declare(NFSpec(name, "firewall"))
    rule_count = draw(st.integers(0, 8))
    for _ in range(rule_count):
        kind = draw(st.integers(0, 2))
        a = draw(nf_names)
        b = draw(nf_names.filter(lambda x: x != a))
        if kind == 0:
            policy.add(OrderRule(a, b))
        elif kind == 1:
            policy.add(PriorityRule(a, b))
        else:
            policy.add(PositionRule(a, draw(st.sampled_from(["first", "last"]))))
    return policy


@settings(max_examples=80, deadline=None)
@given(policy=policies())
def test_format_parse_roundtrip_preserves_rules(policy):
    reparsed = parse_policy(format_policy(policy))
    assert reparsed.rules == policy.rules


@settings(max_examples=80, deadline=None)
@given(policy=policies())
def test_format_parse_roundtrip_preserves_explicit_kinds(policy):
    reparsed = parse_policy(format_policy(policy))
    for name, spec in policy.instances.items():
        if spec.kind != spec.name:  # explicit declarations survive
            assert reparsed.kind_of(name) == spec.kind


@settings(max_examples=60, deadline=None)
@given(policy=policies())
def test_compile_fails_exactly_on_check_policy_errors(policy):
    # The compiler's only policy gate is check_policy: a policy it
    # accepts compiles, one it rejects raises its errors, never a bare
    # ValueError from a later pass.
    rebuilt = Policy()
    for name in sorted(policy.nf_names()):
        rebuilt.declare(NFSpec(name, "firewall"))
    for rule in policy.rules:
        rebuilt.add(rule)
    policy = rebuilt
    report = check_policy(policy)
    if report.ok:
        compile_policy(policy)
    else:
        with pytest.raises(PolicyConflictError) as caught:
            compile_policy(policy)
        assert caught.value.conflicts == report.errors


@settings(max_examples=60, deadline=None)
@given(policy=policies())
def test_check_policy_is_deterministic(policy):
    first = check_policy(policy)
    second = check_policy(policy)
    assert first.errors == second.errors
    assert first.warnings == second.warnings
