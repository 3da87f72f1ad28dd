"""Property-based tests for LPM, Aho-Corasick, and the DES engine."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import LpmTable, int_to_ip
from repro.nfs import AhoCorasick
from repro.sim import Environment


# --------------------------------------------------------------------- LPM
routes = st.lists(
    st.tuples(st.integers(0, 0xFFFFFFFF), st.integers(0, 32)),
    min_size=1, max_size=30,
)


def brute_force_lookup(entries, address):
    best_len, best_value = -1, None
    for (net, length), value in entries.items():
        mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
        if address & mask == net and length > best_len:
            best_len, best_value = length, value
    return best_value


@settings(max_examples=40)
@given(data=routes, probes=st.lists(st.integers(0, 0xFFFFFFFF), min_size=1, max_size=10))
def test_lpm_matches_brute_force(data, probes):
    table = LpmTable()
    entries = {}
    for index, (address, length) in enumerate(data):
        mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
        net = address & mask
        entries[(net, length)] = index
        table.insert(int_to_ip(net), length, index)
    for probe in probes:
        assert table.lookup_int(probe) == brute_force_lookup(entries, probe)


# ------------------------------------------------------------ aho-corasick
@settings(max_examples=40)
@given(
    patterns=st.lists(st.binary(min_size=1, max_size=5), min_size=1,
                      max_size=8, unique=True),
    haystack=st.binary(max_size=80),
)
def test_aho_corasick_matches_naive_search(patterns, haystack):
    ac = AhoCorasick(patterns)
    expected = set()
    for pattern in patterns:
        start = 0
        while True:
            index = haystack.find(pattern, start)
            if index < 0:
                break
            expected.add((pattern, index + len(pattern)))
            start = index + 1
    assert set(ac.findall(haystack)) == expected


# ------------------------------------------------------------------ engine
@settings(max_examples=30)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                 allow_nan=False), min_size=1, max_size=20))
def test_engine_fires_events_in_time_order(delays):
    env = Environment()
    fired = []
    for delay in delays:
        env.call_later(delay, lambda: fired.append(env.now))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert env.now == max(delays)


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1))
def test_engine_chained_timeouts_accumulate(seed):
    rng = random.Random(seed)
    delays = [rng.uniform(0, 10) for _ in range(10)]
    env = Environment()
    observed = []

    def step(index):
        observed.append(env.now)
        if index + 1 < len(delays):
            env.call_later(delays[index + 1], step, index + 1)

    env.call_later(delays[0], step, 0)
    env.run()
    total = 0.0
    for delay, at in zip(delays, observed):
        total += delay
        assert abs(at - total) < 1e-9
