"""``Core.reserve`` replays ``Core.execute``'s float sequence, bit for bit.

A burst's instants are no longer read off the engine (one timeout per
packet) but computed: ``start = max(t, busy_until); finish = start + d;
t = t + (finish - t)``.  The last step is not ``t = finish``: the engine
fired the timeout at ``now + (finish - now)``, which differs from
``finish`` in the last bit often enough that every golden latency would
move.  The oracle is the event-driven original
(:mod:`tests.support.core_reference`) driven by a real process on a real
environment; the comparison is ``==`` on floats, after every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Core, Environment
from tests.support.core_reference import ReferenceCore

#: Model-clock magnitudes: service times of 0.5 ns .. 50 us, clocks up
#: to seconds -- plus the calibrated constants themselves, whose sums are
#: where the last-bit differences actually show.
durations = st.one_of(
    st.sampled_from([0.0, 0.0005, 0.002, 0.03, 0.0875, 0.0925, 0.65, 0.7]),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)
steps = st.lists(
    st.tuples(st.sampled_from(["work", "work", "work", "idle"]), durations),
    min_size=1, max_size=40)
clocks = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(start=clocks, backlog=st.one_of(st.just(0.0), durations), steps=steps)
def test_reserve_returns_the_instants_the_engine_fired_execute_at(
        start, backlog, steps):
    env = Environment(initial_time=start)
    # A core that starts busy: its backlog drains ``backlog`` us from now.
    reference = ReferenceCore(env, busy_until=start + backlog)
    fired = []

    def driver():
        for kind, amount in steps:
            if kind == "work":
                yield reference.execute(amount)
            else:
                yield env.timeout(amount)
            fired.append((env.now, reference.busy_until, reference.busy_time))

    env.process(driver())
    env.run()

    core = Core(Environment(initial_time=start))
    core.busy_until = start + backlog
    now = start
    for (kind, amount), want in zip(steps, fired):
        now = core.reserve(now, amount) if kind == "work" else now + amount
        assert (now, core.busy_until, core.busy_time) == want
    assert len(fired) == len(steps)


@settings(max_examples=100, deadline=None)
@given(start=clocks, backlog=durations,
       work=st.lists(durations, min_size=1, max_size=32),
       at=st.floats(min_value=0.0, max_value=1.0))
def test_busy_time_at_counts_only_what_has_elapsed(start, backlog, work, at):
    # One burst reserved in one call: contiguous from where it starts.
    core = Core(Environment(initial_time=start))
    core.busy_until = start + backlog
    begins = core.busy_until
    now = start
    for duration in work:
        now = core.reserve(now, duration)
    probe = begins + at * (core.busy_until - begins)
    elapsed = core.busy_time_at(probe)
    assert 0.0 <= elapsed <= core.busy_time
    assert elapsed == max(
        0.0, core.busy_time - max(0.0, core.busy_until - probe))
    assert core.busy_time_at(core.busy_until) == core.busy_time
