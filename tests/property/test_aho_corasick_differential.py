"""Differential: ``repro.nfs.AhoCorasick`` against the textbook automaton.

``src/`` walks only runs of pattern-alphabet bytes at least as long as
the shortest pattern (marked by one ``translate`` through a class table
and located with ``find``);
:mod:`tests.support.aho_corasick_textbook` walks every byte.  Both must
yield the same ``(pattern_index, end_offset)`` sequence, in the same
order -- compared as lists, over all 256 byte values, every buffer type
the scan accepts, and the edges the run filter introduces.
"""

import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.check.generator import CaseGenerator
from repro.nfs import AhoCorasick, Ids, Ips, build_signatures
from tests.support.aho_corasick_textbook import TextbookAhoCorasick

BUFFERS = [bytes, bytearray, memoryview]
#: NUL and \x01 (the two values a class mark takes, so a pattern made of
#: them reads like the marks themselves), plus punctuation patterns.
AWKWARD = [b"\x00", b"\x01", b"\x00\x01", b"]", b"^", b"-", b"\\", b"[",
           b"^-]\\", b"\x00\x00", b"a-z"]


def _same(patterns, data):
    fast = AhoCorasick(patterns)
    reference = list(TextbookAhoCorasick(patterns).finditer(bytes(data)))
    for buffer in BUFFERS:
        assert list(fast.finditer(buffer(data))) == reference, buffer
    return reference


# A small byte alphabet makes nested, overlapping and repeated matches
# common; the full range covers every class-escaping case.
_narrow = st.binary(min_size=1, max_size=5).map(
    lambda raw: bytes(b"ab]^-\\\x00"[b % 7] for b in raw))
_pattern = st.one_of(st.binary(min_size=1, max_size=6), _narrow,
                     st.sampled_from(AWKWARD))


@st.composite
def _cases(draw):
    patterns = draw(st.lists(_pattern, min_size=1, max_size=8))
    # Duplicates and nested patterns on purpose (no unique=True).
    for pattern in draw(st.lists(st.sampled_from(patterns), max_size=3)):
        cut = draw(st.integers(0, len(pattern) - 1))
        patterns.append(pattern[cut:] or pattern)
        patterns.append(pattern[:cut] or pattern)
    alphabet = sorted(set().union(*patterns))
    foreign = [b for b in range(256) if b not in alphabet] or [0]
    chunk = st.one_of(
        st.binary(max_size=12),
        st.sampled_from(patterns),
        st.lists(st.sampled_from(alphabet), max_size=12).map(bytes),
        st.lists(st.sampled_from(foreign), max_size=12).map(bytes),
    )
    return patterns, b"".join(draw(st.lists(chunk, max_size=10)))


@settings(max_examples=300, deadline=None)
@given(_cases())
@example(([b"]", b"^", b"-", b"\\", b"\x00"], b"a]b^c-d\\e\x00f]^-\\\x00"))
@example(([b"ab", b"b", b"abab", b"ab"], b"xababab"))
def test_finditer_equals_the_textbook_walk(case):
    patterns, data = case
    _same(patterns, data)


@pytest.mark.parametrize("data, expected", [
    (b"", []),
    (b"hershehishers", None),                  # all alphabet
    (b"\x00\xff .,;:!?\n" * 7, []),            # no alphabet byte at all
    (b"h\x00e\x00r\x00s" * 5, []),             # runs one short of "he"
    (b"\x00\x00she", [(1, 5), (0, 5)]),        # match ends on the last byte
    (b"he", [(0, 2)]),                         # the whole input is one match
])
def test_run_filter_edges(data, expected):
    patterns = [b"he", b"she", b"his", b"hers"]
    found = _same(patterns, data)
    if expected is not None:
        assert found == expected
    else:
        assert found


def test_runs_one_byte_shorter_than_the_shortest_pattern_are_skipped():
    patterns = [b"abc", b"bcab", b"cabca"]
    # Every run of alphabet bytes is two long: nothing can match.
    assert _same(patterns, b"ab-bc-ca-ab\x00bc") == []
    # One byte more and the automaton must see it.
    assert _same(patterns, b"ab-abc-ca") == [(0, 6)]


@pytest.mark.parametrize("data, expected", [
    (b"abc", [(0, 3)]),                    # one run, exactly the shortest
    (b"ab", []),                           # one byte short, whole buffer
    (b"abc-ab", [(0, 3)]),                 # exact run at the start
    (b"ab-abc", [(0, 6)]),                 # exact run at the end
    (b"abc-abc", [(0, 3), (0, 7)]),        # two runs, one foreign byte apart
    (b"bca-bc", []),                       # walked run, then a short one
    (b"abcab", [(0, 3), (1, 5)]),          # a match ends on the last byte
    (b"-abcabca", [(0, 4), (1, 6), (0, 7), (2, 8)]),
])
def test_run_boundaries(data, expected):
    # Shortest pattern 3: every run is at, under or over the seed length.
    assert _same([b"abc", b"bcab", b"cabca"], data) == expected


def test_one_byte_patterns_and_no_patterns():
    assert _same([b"\x00"], b"\x00a\x00") == [(0, 1), (0, 3)]
    assert _same([b"\x01"], b"\x00\x01\x01") == [(0, 2), (0, 3)]
    assert _same([b"a", b"a"], b"aa") == [(0, 1), (1, 1), (0, 2), (1, 2)]
    empty = AhoCorasick([])
    for buffer in BUFFERS:
        for data in (b"", b"\x00\x01", b"anything"):
            assert list(empty.finditer(buffer(data))) == []


@pytest.mark.parametrize("nf_class", [Ids, Ips])
def test_ids_counts_equal_on_the_fuzzers_signature_traffic(nf_class):
    signatures = build_signatures()
    fast, reference = nf_class("fast", signatures), nf_class("ref", signatures)
    reference.engine = TextbookAhoCorasick(signatures)
    generator = CaseGenerator(seed=0, packets_per_case=24)
    packets = 0
    for index in range(40):
        case = generator.generate(index)
        for ours, theirs in zip(case.build_packets(), case.build_packets()):
            assert (fast.handle(ours).dropped
                    == reference.handle(theirs).dropped)
            packets += 1
    assert packets == 40 * 24 and fast.alerts > 40  # the traffic bears signatures
    assert fast.alerts == reference.alerts
    assert fast.alerts_by_sid == reference.alerts_by_sid
    assert fast.dropped_packets == reference.dropped_packets
    assert fast.scanned_bytes == reference.scanned_bytes
    assert fast.errors == reference.errors == 0


def _best_us(engine, data, rounds=5, loops=40):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(loops):
            for _match in engine.finditer(data):
                pass
        best = min(best, (time.perf_counter() - start) / loops * 1e6)
    return best


def test_scan_cost_follows_the_property_the_skip_names():
    # The skip helps bytes that occur in no signature (here ~50x on the
    # lab's zero padding: one translate and one containment test, no
    # walk) and costs a C-level translate and find on payloads made only
    # of signature-alphabet bytes, where every byte is still walked
    # (here ~0.94-1.02x of the textbook walk).  Wide margins: this
    # guards the shape, not the numbers.
    signatures = build_signatures()
    fast, reference = AhoCorasick(signatures), TextbookAhoCorasick(signatures)
    rng = random.Random(5)
    text = bytes(rng.choice(b"abcdefghijklmnopqrstuvwxyz0123456789")
                 for _ in range(660))
    assert _best_us(fast, bytes(655)) * 3 < _best_us(reference, bytes(655))
    assert _best_us(fast, text) < _best_us(reference, text) * 1.5
