"""Tier-1 replay of the committed fuzz seed corpus (``tests/corpus/``).

Every seed must stay green across all three planes: sequential
reference, functional parallel dataplane, and the timed DES dataplane
-- and, since the profile-audit oracle landed, with the access recorder
armed (``audit_profiles=True``), so every declaration gap the fuzzer
ever found stays closed.  The ``regression-*`` seeds are shrunk repros
of real bugs (a reference-linearization cycle, undeclared ICMP drops
in the caching and NAT NFs, the forwarder's undeclared TTL path).

``tests/corpus/negative/`` is deliberately outside the non-recursive
glob: those fixtures are *expected* to fail the audit and prove the
oracle has teeth.
"""

import glob
import json
import os

import pytest

from repro.check import FuzzCase, run_case

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))
NEGATIVE_DIR = os.path.join(CORPUS_DIR, "negative")


def test_corpus_is_committed():
    assert len(CORPUS) >= 10, "seed corpus went missing"


@pytest.mark.parametrize(
    "path", CORPUS, ids=[os.path.splitext(os.path.basename(p))[0] for p in CORPUS]
)
def test_corpus_seed_stays_green(path):
    case = FuzzCase.load(path)
    outcome = run_case(case, include_des=True, audit_profiles=True)
    assert outcome.ok, f"{outcome.kind}: {outcome.detail}"


def test_corpus_seeds_have_unique_ids():
    ids = [FuzzCase.load(p).case_id for p in CORPUS]
    assert len(ids) == len(set(ids))


#: The shrunk repros: small, so the scaled axis over all of them is cheap.
REGRESSIONS = [p for p in CORPUS if os.path.basename(p).startswith("regression-")]


@pytest.mark.parametrize(
    "path", REGRESSIONS,
    ids=[os.path.splitext(os.path.basename(p))[0] for p in REGRESSIONS],
)
def test_corpus_seed_stays_green_scaled(path):
    """The §7 axis: the same seeds, every NF x2, RSS split, flow cache.

    The sequential oracle becomes a bank of per-instance chains (see
    ``run_case``); a subset (the ``regression-*`` seeds) keeps tier-1
    wall time in budget -- CI's fuzz-smoke covers the axis at depth.
    """
    case = FuzzCase.load(path)
    outcome = run_case(case, include_des=True, instances=2)
    assert outcome.ok, f"{outcome.kind}: {outcome.detail}"
    assert outcome.instances == 2


def test_negative_fixture_is_caught_by_the_profile_oracle():
    """The intentionally-narrowed loadbalancer declaration (its DIP
    write hidden via a profile tweak) must trip the audit -- and only
    the audit: without the oracle armed the case sails through, which
    is exactly the silent-latent-race failure mode the oracle exists
    to catch.
    """
    path = os.path.join(NEGATIVE_DIR, "profile-narrowed-loadbalancer.json")
    case = FuzzCase.load(path)

    blind = run_case(case, include_des=False)
    assert blind.ok, "negative fixture must only fail via the audit"

    outcome = run_case(case, include_des=False, audit_profiles=True)
    assert not outcome.ok
    assert outcome.kind == "profile-violation"
    findings = json.loads(outcome.detail)
    assert any(
        f["kind"] == "loadbalancer"
        and f["verb"] == "write"
        and f["field"] == "dip"
        for f in findings
    ), findings
