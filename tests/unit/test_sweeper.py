"""The lazy timeout sweeper shared by the AT and the flight table."""

from repro.dataplane.runtimes import Sweeper
from repro.sim import Environment


class _Entry:
    __slots__ = ("opened_us",)

    def __init__(self, opened_us: float):
        self.opened_us = opened_us


def _sweeper(env, table, expired):
    return Sweeper(env, table, interval=10.0, timeout=25.0,
                   opened="opened_us",
                   expire=lambda key, entry: expired.append(
                       (env.now, key, entry)))


def test_entry_aged_exactly_timeout_expires_and_younger_waits_a_tick():
    env = Environment()
    table, expired = {}, []
    sweeper = _sweeper(env, table, expired)
    old, young = _Entry(5.0), _Entry(6.0)
    table["old"], table["young"] = old, young
    sweeper.arm(0.0)
    sweeper.arm(3.0)  # already armed: queues nothing
    assert env.peek() == 10.0
    env.run(until=30.0)
    # Tick at 30: "old" is exactly 25 old and expires (popped before
    # ``expire`` sees it); "young" is 24 old and stays.
    assert expired == [(30.0, "old", old)]
    assert table == {"young": young}
    assert env.peek() == 40.0
    env.step()
    assert expired[-1] == (40.0, "young", young)
    assert table == {}
    # The table emptied: the sweeper goes idle and queues nothing.
    assert not sweeper.armed
    assert env.peek() == float("inf")
    # The next arm ticks one interval after its own instant.
    table["late"] = _Entry(47.0)
    sweeper.arm(47.0)
    assert env.peek() == 57.0


def test_tick_over_an_empty_table_leaves_nothing_queued():
    env = Environment()
    table, expired = {}, []
    sweeper = _sweeper(env, table, expired)
    sweeper.arm(0.0)
    env.run()
    assert expired == [] and not sweeper.armed
    assert env.peek() == float("inf")
    assert env.now == 10.0
