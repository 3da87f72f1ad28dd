"""The landing rule of a posted reference (``NFPServer._post`` -> ``_land``).

A delivery waits ``batch_wait_us``, is diverted to ``fault_abort`` when
the target instance is down as it lands, re-arms up to
``ring_retry_limit`` times at ``ring_retry_backoff_us`` while the ring
is full (the divert is not asked again), then ``try_put``s -- and a
final rejection goes through the ring's ``on_drop`` hook so the packet
is accounted, not stranded.
"""

import pytest

from repro.core import Orchestrator, Policy
from repro.dataplane import NFPServer
from repro.faults import FaultInjector, FaultPlan
from repro.net import build_packet
from repro.sim import Environment, Ring, SimParams
from repro.telemetry import TelemetryHub

WEST_EAST = ["ids", "monitor", "loadbalancer"]
BACKOFF_US = 3.0
POST_AT_US = 10.0


def _params():
    return SimParams(ring_retry_limit=2, ring_retry_backoff_us=BACKOFF_US,
                     at_timeout_us=2_000.0)


def _held_ring(env, free_at_us=None):
    """A one-slot ring held full by a blocker until ``free_at_us``.

    Returns the ring and the list its landings are logged to as
    ``(time, item)`` -- a consumer parked the moment the slot frees is
    handed the next reference at the model time it is put.
    """
    ring = Ring(env, capacity=1, name="held")
    assert ring.try_put("blocker")
    landed = []

    def note(item):
        landed.append((env.now, item))

    def free():
        assert ring.get_batch(1) == ["blocker"]
        ring.wait(note)

    if free_at_us is not None:
        env.call_later(free_at_us, free)
    return ring, landed


def _post_later(env, server, ring, pkt):
    env.call_later(POST_AT_US, lambda: server._post(ring, pkt, env.now))


@pytest.mark.parametrize("retries", [0, 1, 2])
def test_reference_lands_after_k_backoffs(retries):
    env = Environment()
    hub = TelemetryHub()
    params = _params()
    server = NFPServer(env, params, telemetry=hub)
    first_try = POST_AT_US + params.batch_wait_us
    # The slot frees half a backoff before the attempt that must succeed.
    ring, landed = _held_ring(
        env, free_at_us=first_try + (retries - 0.5) * BACKOFF_US)
    pkt = build_packet(size=64)
    _post_later(env, server, ring, pkt)
    env.run()

    assert landed == [(first_try + retries * BACKOFF_US, pkt)]
    assert hub.registry.counter_value("ring.retry") == retries
    assert hub.registry.counter_value("ring.hops") == 1
    assert ring.dropped == 0


def test_past_the_retry_limit_the_reference_reaches_on_drop():
    env = Environment()
    hub = TelemetryHub()
    params = _params()
    server = NFPServer(env, params, telemetry=hub)
    ring, landed = _held_ring(env)  # never frees
    rejected = []
    ring.on_drop = lambda item: rejected.append((env.now, item))
    pkt = build_packet(size=64)
    _post_later(env, server, ring, pkt)
    env.run()

    gave_up = POST_AT_US + params.batch_wait_us + 2 * BACKOFF_US
    assert rejected == [(gave_up, pkt)]
    assert landed == [] and ring.dropped == 1 and len(ring) == 1
    assert hub.registry.counter_value("ring.retry") == 2


def _west_east_server(params, faults=None):
    env = Environment()
    hub = TelemetryHub()
    injector = None
    if faults is not None:
        injector = FaultInjector(FaultPlan.parse(faults), telemetry=hub)
    server = NFPServer(env, params, telemetry=hub, injector=injector)
    server.deploy(Orchestrator().deploy(Policy.from_chain(WEST_EAST)))
    return env, hub, server


def _assert_accounted_as_nil(server):
    report = server.conservation_report()
    assert report["unaccounted"] == 0, report
    assert report["at_depth"] == 0 and report["flight_depth"] == 0, report
    assert report["emitted"] == 0 and report["drops"] == {"nil": 1}, report
    # The AT entry completed (with a nil version); it did not time out.
    assert server.mergers[0].discarded == 1
    assert server.mergers[0].timed_out == 0


def test_overflow_after_retries_is_accounted_through_the_merger():
    # Stage 0 of the west-east graph is (ids | monitor | loadbalancer[v2]):
    # the classifier posts to the monitor's ring, one post per packet.
    env, hub, server = _west_east_server(_params())
    ring = server.runtimes["monitor"].instances[0].rx
    ring.capacity = 0  # held full for the whole run
    server.inject(build_packet(size=128))
    env.run()

    assert server.lost == 1 and ring.dropped == 1 and ring.enqueued == 0
    assert hub.registry.counter_value("ring.retry") == 2
    assert hub.registry.counter_value("drops.ring_full") == 1
    assert hub.registry.counter_value("faults.aborted_packets") == 1
    _assert_accounted_as_nil(server)


def test_delivery_to_a_down_instance_is_diverted_not_retried():
    params = _params()
    env, hub, server = _west_east_server(params, faults="crash:monitor:pkt=1")
    casualty = server.runtimes["monitor"].instances[0]
    casualty.rx.capacity = 0  # full: an undiverted delivery would retry
    server.inject(build_packet(size=128))

    def crash():
        assert len(server._flight) == 1
        server.injector.on_packet("monitor", env.now)
        assert server.injector.is_down("monitor")

    # After the classifier posted (nic_io_us + a sub-microsecond tag),
    # before the reference lands batch_wait_us later.
    env.call_later(params.nic_io_us + params.batch_wait_us / 2.0, crash)
    env.run()

    assert hub.registry.counter_value("faults.aborted_packets") == 1
    assert hub.registry.counter_value("ring.retry") == 0
    assert casualty.rx.dropped == 0 and casualty.rx.enqueued == 0
    assert server.lost == 0
    _assert_accounted_as_nil(server)


def test_instance_that_goes_down_between_landing_and_retry_is_not_diverted():
    # The divert is asked once, as the reference lands.  An instance that
    # was up then and crashes while the reference is backing off on its
    # full ring is *not* diverted on the retry: the retries run out and
    # the reference takes the overflow path (on_drop), which aborts it.
    params = _params()
    env, hub, server = _west_east_server(params, faults="crash:monitor:pkt=1")
    casualty = server.runtimes["monitor"].instances[0]
    casualty.rx.capacity = 0  # full from the first landing to the last retry
    rejected = []
    overflow = casualty.rx.on_drop
    casualty.rx.on_drop = lambda pkt: (rejected.append(env.now), overflow(pkt))
    server.inject(build_packet(size=128))

    def crash():
        assert hub.registry.counter_value("ring.retry") == 1
        assert len(server._flight) == 1
        server.injector.on_packet("monitor", env.now)
        assert server.injector.is_down("monitor")

    # Half a backoff after the first landing (nic_io_us, a sub-microsecond
    # tag, then batch_wait_us): the first retry is already armed, neither
    # retry has run.
    env.call_later(params.nic_io_us + params.batch_wait_us + BACKOFF_US / 2.0,
                   crash)
    env.run()

    assert hub.registry.counter_value("ring.retry") == 2
    assert len(rejected) == 1
    assert casualty.rx.dropped == 1 and casualty.rx.enqueued == 0
    assert server.lost == 1
    assert hub.registry.counter_value("drops.ring_full") == 1
    assert hub.registry.counter_value("faults.aborted_packets") == 1
    _assert_accounted_as_nil(server)
