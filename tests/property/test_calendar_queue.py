"""Property tests: the calendar-queue scheduler is order-identical to
the heap.

The whole point of ``Environment(scheduler="calendar")`` is that it is a
pure data-structure swap: every schedule -- including same-timestamp
ties between events and scheduled calls (``call_later`` / ``call_at``),
and periodic processes that retire themselves -- must dispatch in exactly the order the binary heap would
pick.  These properties run the same randomly generated schedule program
on both schedulers and demand identical logs, final clocks, and event
counts; a standalone property also checks the raw
:class:`~repro.sim.calendar.CalendarQueue` against sorted order through
its bucket-resize regime.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import CalendarQueue, Environment

#: Delays drawn from a small pool on purpose: collisions (exact ties)
#: are the interesting case, and tiny pools make them constant.
delays = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 2.5, 3.0, 7.25, 40.0])

spawn_ops = st.tuples(st.just("spawn"),
                      st.lists(delays, min_size=1, max_size=4))
periodic_ops = st.tuples(st.just("periodic"), delays,
                         st.integers(min_value=1, max_value=4))
sleep_ops = st.tuples(st.just("sleep"), delays)
#: A scheduled call, relative (``call_later``) or absolute (``call_at``),
#: optionally re-arming itself once -- the shape of a state machine step.
call_ops = st.tuples(st.just("call"), st.booleans(), delays, delays)
programs = st.lists(st.one_of(spawn_ops, periodic_ops, sleep_ops,
                              call_ops),
                    min_size=1, max_size=12)


def _run_program(scheduler, program):
    """Interpret one schedule program; return (log, final now, events)."""
    env = Environment(scheduler=scheduler)
    log = []
    procs = []

    def worker(wid, waits):
        for delay in waits:
            yield env.timeout(delay)
            log.append(("tick", wid, env.now))

    def periodic(wid, period, times):
        # Self-retiring: runs a fixed number of periods, then returns.
        for _ in range(times):
            yield env.timeout(period)
            log.append(("periodic", wid, env.now))
        log.append(("retired", wid, env.now))

    def called(cid, rearm):
        log.append(("called", cid, env.now))
        if rearm is not None:
            env.call_later(rearm, called, cid, None)

    def driver():
        for op in program:
            kind = op[0]
            if kind == "spawn":
                procs.append(env.process(worker(len(procs), op[1])))
            elif kind == "periodic":
                procs.append(env.process(periodic(len(procs), op[1],
                                                  op[2])))
            elif kind == "sleep":
                yield env.timeout(op[1])
                log.append(("driver", env.now))
            elif kind == "call":
                _, absolute, delay, rearm = op
                if absolute:
                    env.call_at(env.now + delay, called, len(log), rearm)
                else:
                    env.call_later(delay, called, len(log), rearm)
        yield env.timeout(0.0)
        log.append(("driver-done", env.now))

    env.process(driver())
    env.run()
    return log, env.now, env.events_processed


@settings(max_examples=80, deadline=None)
@given(program=programs)
def test_calendar_matches_heap_on_arbitrary_schedules(program):
    heap = _run_program("heap", program)
    calendar = _run_program("calendar", program)
    assert calendar[0] == heap[0]  # identical dispatch order
    assert calendar[1] == heap[1]  # identical final clock
    assert calendar[2] == heap[2]  # identical event count


@settings(max_examples=80, deadline=None)
@given(times=st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=120))
def test_calendar_queue_pops_in_lexicographic_order(times):
    # Push everything up front (monotone vs. the never-advanced pop
    # clock), then drain: the pop order must be exactly sorted
    # (time, eid) order, ties broken by insertion id.
    queue = CalendarQueue()
    expected = sorted((t, eid) for eid, t in enumerate(times))
    for eid, t in enumerate(times):
        queue.push((t, eid, f"ev{eid}"))
    assert len(queue) == len(times)
    popped = []
    while queue:
        entry = queue[0]
        popped_entry = queue.pop_min()
        assert popped_entry[:2] == entry[:2]  # peek agrees with pop
        popped.append(popped_entry[:2])
    assert popped == expected


@settings(max_examples=40, deadline=None)
@given(rounds=st.lists(
    st.tuples(
        st.lists(st.floats(min_value=0.0, max_value=50.0,
                           allow_nan=False, allow_infinity=False),
                 min_size=0, max_size=10),
        st.integers(min_value=0, max_value=6),
    ),
    min_size=1, max_size=25))
def test_calendar_queue_interleaved_push_pop(rounds):
    # Monotone interleavings (every push is >= the last popped time,
    # the engine's invariant): compare against a sorted-list oracle.
    queue = CalendarQueue()
    oracle = []
    last = 0.0
    eid = 0
    for pushes, pops in rounds:
        for offset in pushes:
            queue.push((last + offset, eid, None))
            oracle.append((last + offset, eid))
            eid += 1
        oracle.sort()
        for _ in range(min(pops, len(oracle))):
            want = oracle.pop(0)
            got = queue.pop_min()
            assert got[:2] == want
            last = got[0]
    assert len(queue) == len(oracle)


def test_calendar_queue_peek_only_exposes_the_minimum():
    queue = CalendarQueue()
    queue.push((2.0, 0, "a"))
    queue.push((1.0, 1, "b"))
    assert queue[0][:2] == (1.0, 1)
    try:
        queue[1]
    except IndexError:
        pass
    else:  # pragma: no cover - regression guard
        raise AssertionError("only index 0 may be peeked")
