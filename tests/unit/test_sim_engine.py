"""Unit tests for the discrete-event simulation engine."""

import warnings

import pytest

from repro.sim import Environment, SimulationError


def test_clock_starts_at_zero():
    assert Environment().now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    seen = []

    def proc():
        yield env.timeout(5.0)
        seen.append(env.now)
        yield env.timeout(2.5)
        seen.append(env.now)

    env.process(proc())
    env.run()
    assert seen == [5.0, 7.5]


def test_timeout_carries_value():
    env = Environment()
    got = []

    def proc():
        value = yield env.timeout(1.0, value="payload")
        got.append(value)

    env.process(proc())
    env.run()
    assert got == ["payload"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_processes_interleave_in_time_order():
    env = Environment()
    order = []

    def proc(name, delay):
        yield env.timeout(delay)
        order.append(name)

    env.process(proc("b", 2.0))
    env.process(proc("a", 1.0))
    env.process(proc("c", 3.0))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(1.0)
        order.append(name)

    for name in ("x", "y", "z"):
        env.process(proc(name))
    env.run()
    assert order == ["x", "y", "z"]


def test_process_is_event_joinable():
    env = Environment()
    log = []

    def child():
        yield env.timeout(3.0)
        return "result"

    def parent():
        value = yield env.process(child())
        log.append((env.now, value))

    env.process(parent())
    env.run()
    assert log == [(3.0, "result")]


def test_manual_event_succeed():
    env = Environment()
    log = []
    gate = env.event()

    def waiter():
        value = yield gate
        log.append((env.now, value))

    def opener():
        yield env.timeout(4.0)
        gate.succeed(42)

    env.process(waiter())
    env.process(opener())
    env.run()
    assert log == [(4.0, 42)]


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_raises_in_waiter():
    env = Environment()
    caught = []
    gate = env.event()

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer():
        yield env.timeout(1.0)
        gate.fail(RuntimeError("boom"))

    env.process(waiter())
    env.process(failer())
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_propagates():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise ValueError("kaput")

    env.process(bad())
    with pytest.raises(ValueError, match="kaput"):
        env.run()


def test_run_until_pauses_clock():
    env = Environment()
    seen = []

    def proc():
        for _ in range(10):
            yield env.timeout(1.0)
            seen.append(env.now)

    env.process(proc())
    env.run(until=3.5)
    assert env.now == 3.5
    assert seen == [1.0, 2.0, 3.0]
    env.run()
    assert len(seen) == 10


def test_run_until_in_past_rejected():
    env = Environment()
    env.run(until=5.0)
    assert env.now == 5.0
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_the_scheduler_keyword_accepts_only_the_heap():
    # The performance lab builds every DES rig with scheduler="heap" and
    # probes "calendar" expecting SimulationError for a deleted path.
    assert Environment(scheduler="heap").peek() == float("inf")
    with pytest.raises(SimulationError, match="calendar"):
        Environment(scheduler="calendar")


def test_yield_non_event_rejected():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_peek_reports_next_event_time():
    env = Environment()

    def proc():
        yield env.timeout(7.0)

    env.process(proc())
    env.step()  # bootstrap event at t=0
    assert env.peek() == 7.0
    env.run()
    assert env.peek() == float("inf")


# ------------------------------------------------------- scheduled calls
def test_call_later_is_one_event_calling_once_with_its_arguments():
    env = Environment()
    calls = []
    env.call_later(3.0, lambda *args: calls.append((env.now, args)), "a", 2)
    assert env.peek() == 3.0 and calls == []
    env.run()
    assert calls == [(3.0, ("a", 2))]
    # No bootstrap, no completion, no Event: one queue entry is all.
    assert env.events_processed == 1


def test_call_later_keeps_scheduling_order_among_ties():
    env = Environment()
    order = []
    for tag in "abc":
        env.call_later(1.0, order.append, tag)
    env.timeout(1.0).callbacks.append(lambda _event: order.append("d"))
    env.run()
    assert order == ["a", "b", "c", "d"]


def test_call_later_can_rearm_itself():
    env = Environment()
    seen = []

    def retry(left):
        seen.append(env.now)
        if left:
            env.call_later(2.0, retry, left - 1)

    env.call_later(1.0, retry, 2)
    env.run()
    assert seen == [1.0, 3.0, 5.0]


def test_call_later_rejects_a_negative_delay():
    with pytest.raises(SimulationError):
        Environment().call_later(-1.0, print)


def test_exception_in_a_scheduled_call_surfaces_from_step():
    env = Environment()

    def boom():
        raise KeyError("scheduled")

    env.call_later(1.0, boom)
    with pytest.raises(KeyError, match="scheduled"):
        env.step()
    assert env.now == 1.0


def test_call_later_returns_nothing_to_join_or_cancel():
    assert Environment().call_later(1.0, print) is None


def test_call_at_is_one_queue_entry_at_the_instant_given():
    env = Environment()
    env.run(until=0.211)
    # 0.211 + (0.467 - 0.211) != 0.467 in floating point: the instant is
    # taken as given, not re-derived from a delay.
    assert 0.211 + (0.467 - 0.211) != 0.467
    seen = []
    assert env.call_at(
        0.467, lambda *args: seen.append((env.now, args)), "x") is None
    assert len(env._queue) == 1 and env.peek() == 0.467
    env.run()
    assert seen == [(0.467, ("x",))]
    assert env.events_processed == 1


def test_call_at_rejects_a_time_in_the_past():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.call_at(4.999, print)
    env.call_at(5.0, print)  # "now" is not the past


def test_call_at_ties_resolve_in_scheduling_order():
    env = Environment()
    order = []
    env.call_at(2.0, order.append, "at-1")
    env.call_later(2.0, order.append, "later-2")
    env.timeout(2.0).callbacks.append(lambda _event: order.append("timeout-3"))
    env.call_at(2.0, order.append, "at-4")
    env.call_at(1.0, order.append, "earlier")
    env.run()
    assert order == ["earlier", "at-1", "later-2", "timeout-3", "at-4"]


def test_exception_in_a_call_at_surfaces_from_step():
    env = Environment()

    def boom():
        raise KeyError("absolute")

    env.call_at(1.5, boom)
    with pytest.raises(KeyError, match="absolute"):
        env.step()
    assert env.now == 1.5


def test_scheduled_calls_count_as_events_and_queue_depth():
    env = Environment(track_stats=True)
    for k in range(5):
        env.call_at(1.0 + k, int)
    env.call_later(0.5, int)
    assert env.queue_high_watermark == 6 and env.events_processed == 0
    env.run(until=2.0)
    assert env.events_processed == 3
    env.run()
    assert env.events_processed == 6 and env.queue_high_watermark == 6


def test_events_processed_is_scheduled_minus_queued_without_warnings():
    # Python 3.12 deprecates (3.14 removes) reading an itertools.count
    # through __reduce__, which this property used to do on every
    # measure_nfp / collect_telemetry: any warning here is an error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        env = Environment()
        assert env.events_processed == 0
        during = []

        def proc():
            for _ in range(3):
                yield env.timeout(1.0)
                during.append(env.events_processed)

        env.process(proc())          # bootstrap: 1 scheduled, 1 queued
        env.call_later(10.0, during.append, "late")
        assert env.events_processed == 0 and len(env._queue) == 2
        env.run(until=5.0)
        # Each reading follows the bootstrap and the timeouts popped so
        # far; the process's completion event is popped after the third.
        assert during == [2, 3, 4]
        assert env.events_processed == 5 and len(env._queue) == 1
        env.run()
        assert during[-1] == "late"
        assert env.events_processed == 6 and len(env._queue) == 0
