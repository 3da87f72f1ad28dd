"""``Ring.wait``: the one-consumer "next item" callback.

A ring's consumer is a state machine, not a process: it parks a callback
with ``wait`` and finishes its burst with ``burst`` when called.  The
contract these tests pin is the one the generator-based ``get()`` had --
the item leaves the ring at the moment it is available, the consumer
runs one zero-delay scheduled call later -- plus the "not before"
instant that lets a consumer whose burst ends ahead of the clock re-arm
without a scheduled call of its own.
"""

from repro.sim import Environment, Ring


def _consumer(env, ring, log, burst=32):
    """A callback that completes its burst and logs it with the time."""
    def wake(first):
        log.append((env.now, ring.burst(first, burst)))
    return wake


def test_wait_on_a_non_empty_ring_pops_now_and_calls_one_event_later():
    env = Environment()
    ring = Ring(env, capacity=8)
    for item in "abc":
        assert ring.try_put(item)
    log = []
    ring.wait(_consumer(env, ring, log))
    # "a" left at once; the call itself is one queue entry, not yet run.
    assert len(ring) == 2 and log == [] and len(env._queue) == 1
    # A delivery due at the same instant lands in the same burst.
    assert ring.try_put("d")
    env.run()
    assert log == [(0.0, ["a", "b", "c", "d"])]
    assert env.events_processed == 1 and ring._consumer is None


def test_wait_on_an_empty_ring_parks_until_a_delivery_hands_over():
    env = Environment()
    ring = Ring(env, capacity=8)
    log = []
    ring.wait(_consumer(env, ring, log))
    assert len(env._queue) == 0 and ring._consumer is not None
    env.call_later(3.0, ring.try_put, "x")
    env.run()
    assert log == [(3.0, ["x"])]
    # Handed over, never buffered: depth and watermark did not move.
    assert ring.enqueued == 1 and ring.high_watermark == 0
    assert ring._consumer is None  # one wait, one item


def test_puts_into_a_waiting_consumer_fill_its_burst():
    env = Environment()
    ring = Ring(env, capacity=8)
    log = []
    ring.wait(_consumer(env, ring, log))
    for item in "abc":
        assert ring.try_put(item)
    # The first went to the consumer, the rest wait for its burst.
    assert len(ring) == 2
    env.run()
    assert log == [(0.0, ["a", "b", "c"])]


def test_a_retired_consumer_gets_nothing():
    env = Environment()
    ring = Ring(env, capacity=4)
    log = []
    ring.wait(_consumer(env, ring, log))
    ring.cancel_wait()
    assert ring._consumer is None
    assert ring.try_put("late")
    env.run()
    assert log == [] and len(ring) == 1 and env.events_processed == 0


def test_not_before_on_an_empty_ring_costs_no_call_of_its_own():
    env = Environment()
    ring = Ring(env, capacity=8)
    log = []
    ring.wait(_consumer(env, ring, log), not_before=5.0)
    assert len(env._queue) == 0
    env.call_later(9.0, ring.try_put, "x")
    env.run()
    # Free long before the item came: handed over like any parked wait.
    assert log == [(9.0, ["x"])] and env.events_processed == 2


def test_an_item_that_comes_before_the_consumer_is_free_queues_for_it():
    env = Environment()
    ring = Ring(env, capacity=8)
    log = []
    ring.wait(_consumer(env, ring, log), not_before=5.0)
    env.call_later(2.0, ring.try_put, "early")
    env.call_later(3.0, ring.try_put, "later")
    env.run(until=4.0)
    # Both buffered -- the consumer is inside its previous burst.
    assert log == [] and len(ring) == 2 and ring.high_watermark == 2
    env.run()
    assert log == [(5.0, ["early", "later"])]


def test_an_item_due_exactly_when_the_consumer_frees_up_goes_to_the_back():
    # Exact float ties do occur: a delivery at the very instant a busy
    # consumer's burst ends.  Items already waiting are served first --
    # handing the newcomer over directly would reorder a flow.
    for schedule_tie_first in (True, False):
        env = Environment()
        ring = Ring(env, capacity=8)
        log = []
        if schedule_tie_first:
            env.call_at(5.0, ring.try_put, "tie")
        assert ring.try_put("waiting-1")
        ring.wait(_consumer(env, ring, log, burst=2), not_before=5.0)
        env.call_later(1.0, ring.try_put, "waiting-2")
        if not schedule_tie_first:
            env.call_at(5.0, ring.try_put, "tie")
        env.run()
        assert log == [(5.0, ["waiting-1", "waiting-2"])]
        assert ring.get_batch(4) == ["tie"]


def test_an_item_due_exactly_when_an_idle_consumer_frees_up_is_handed_over():
    env = Environment()
    ring = Ring(env, capacity=8)
    log = []
    ring.wait(_consumer(env, ring, log), not_before=5.0)
    env.call_at(5.0, ring.try_put, "tie")
    env.run()
    assert log == [(5.0, ["tie"])] and ring.high_watermark == 0


def test_not_before_in_the_past_is_no_constraint():
    env = Environment()
    env.run(until=10.0)
    ring = Ring(env, capacity=8)
    assert ring.try_put("x")
    log = []
    ring.wait(_consumer(env, ring, log), not_before=4.0)
    env.run()
    assert log == [(10.0, ["x"])]


def test_a_burst_of_one_is_the_handed_over_item_alone():
    env = Environment()
    ring = Ring(env, capacity=8)
    for item in "abc":
        assert ring.try_put(item)
    assert ring.burst("first", 1) == ["first"] and len(ring) == 3
    assert ring.burst("first", 3) == ["first", "a", "b"] and len(ring) == 1
    assert ring.burst("first", 32) == ["first", "c"] and len(ring) == 0
    assert ring.burst("first", 32) == ["first"]
    # Exactly a burst's worth buffered, and one more than that.
    for item in "def":
        assert ring.try_put(item)
    assert ring.burst("first", 4) == ["first", "d", "e", "f"] and len(ring) == 0
    for item in "ghij":
        assert ring.try_put(item)
    assert ring.burst("first", 4) == ["first", "g", "h", "i"] and len(ring) == 1
