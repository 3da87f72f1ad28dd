"""Table 3, cell by cell: derived from the correctness principle, or intent.

``tests/support/table3_semantics.py`` runs each verb pair, on the same
field and on different fields, sequentially, in parallel on one buffer
and in parallel with a copy plus a merge, and derives the cheapest plan
that matches.  Every verdict Algorithm 1 gives on one-action profiles
is either that derived verdict or a listed intent with a reason and its
§4.3 cost, so changing any cell of ``TABLE3`` fails here.
"""

import pytest

from repro.core import TABLE3, ActionProfile, Parallelism, Verb, identify_parallelism
from repro.core.action_table import default_action_table
from repro.eval import compute_pair_statistics
from tests.support.table3_semantics import (
    INTENT,
    KEYS,
    algorithm1,
    derive,
    expand,
    one_action_pair,
    pair_shares,
    split_errors,
)


def _algorithm1_on_one_action_profiles():
    verdicts = {}
    for key in KEYS:
        a1, a2 = one_action_pair(key)
        verdicts[key] = identify_parallelism(
            ActionProfile("nf1", [a1]), ActionProfile("nf2", [a2])).classification
    return verdicts


def test_table3_is_one_read_only_cell_per_verb_pair():
    assert len(TABLE3) == 25 and set(TABLE3) == {(a, b) for a in Verb for b in Verb}
    with pytest.raises(TypeError):
        TABLE3[(Verb.DROP, Verb.READ)] = Parallelism.NOT_PARALLELIZABLE


def test_every_verdict_is_derived_or_intent():
    verdicts = _algorithm1_on_one_action_profiles()
    assert len(verdicts) == 41  # 16 cells x same/different field + 9 Drop cells
    assert split_errors(verdicts) == []
    derived = [key for key in KEYS if key not in INTENT]
    assert (len(derived), len(INTENT)) == (18, 23)


def test_each_intent_entry_gives_a_reason_and_its_section_4_3_cost():
    as_is = expand(TABLE3)
    for key, intent in INTENT.items():
        assert intent.reason and "\n" not in intent.reason, key
        assert pair_shares({**as_is, key: derive(key)}) == intent.cost, key


def test_changing_any_cell_breaks_the_split():
    caught = 0
    for cell, verdict in TABLE3.items():
        for other in Parallelism:
            if other is not verdict:
                assert split_errors(expand({**TABLE3, cell: other})), (cell, other)
                caught += 1
    assert caught == 25 * 2


def test_the_reference_reads_table3_as_algorithm1_does():
    # The expansion and the reference Algorithm 1 that price each intent
    # entry agree with the real one: on every one-action pair, on every
    # pair of catalogue profiles, and on §4.3's shares.
    assert expand(TABLE3) == _algorithm1_on_one_action_profiles()
    table = default_action_table()
    verdicts = expand(TABLE3)
    for nf1 in table:
        for nf2 in table:
            assert algorithm1(nf1, nf2, verdicts) is identify_parallelism(
                nf1, nf2).classification, (nf1.name, nf2.name)
    stats = compute_pair_statistics()
    assert pair_shares(verdicts) == tuple(round(100 * share, 2) for share in (
        stats.parallelizable, stats.no_copy, stats.with_copy, stats.not_parallelizable))
