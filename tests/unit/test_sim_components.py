"""Unit tests for rings, cores, NIC, packet pool, stats, and params."""

import pytest

from repro.sim import (
    Core,
    Environment,
    LatencyStats,
    Nic,
    PacketPool,
    PoolExhaustedError,
    RateMeter,
    Ring,
    SimParams,
    nic_line_rate_mpps,
    percentile,
)
from repro.sim.memory import SLOT_BYTES


# ------------------------------------------------------------------- Ring
def test_ring_fifo_order():
    env = Environment()
    ring = Ring(env, capacity=8)
    for i in range(5):
        assert ring.try_put(i)
    assert ring.get_batch(10) == [0, 1, 2, 3, 4]


def test_ring_capacity_enforced():
    env = Environment()
    ring = Ring(env, capacity=2)
    assert ring.try_put("a") and ring.try_put("b")
    assert not ring.try_put("c")
    assert ring.dropped == 1


def test_ring_blocking_get_wakes_consumer():
    env = Environment()
    ring = Ring(env, capacity=4)
    got = []

    ring.wait(lambda item: got.append((env.now, item)))
    env.call_later(3.0, ring.try_put, "pkt")
    env.run()
    assert got == [(3.0, "pkt")]


def test_ring_high_watermark_tracks_backlog():
    env = Environment()
    ring = Ring(env, capacity=10)
    for i in range(7):
        assert ring.try_put(i)
    ring.get_batch(7)
    assert ring.high_watermark == 7


def test_ring_batch_size_must_be_positive():
    ring = Ring(Environment(), capacity=4)
    with pytest.raises(ValueError):
        ring.get_batch(0)


def test_ring_peek_nondestructive():
    ring = Ring(Environment(), capacity=4)
    assert ring.peek() is None
    assert ring.try_put("x")
    assert ring.peek() == "x"
    assert len(ring) == 1


# ------------------------------------------------------------------- Core
def test_core_serialises_work():
    env = Environment()
    core = Core(env)
    # Two jobs asked for at t=0: the second queues behind the first.
    assert [core.reserve(0.0, 2.0), core.reserve(0.0, 3.0)] == [2.0, 5.0]
    # One asked for after the backlog drained starts when asked.
    assert core.reserve(6.0, 1.0) == 7.0
    assert core.busy_until == 7.0 and core.busy_time == 6.0


def test_core_utilisation():
    env = Environment()
    core = Core(env)
    assert core.reserve(env.now, 4.0) == 4.0
    env.run(until=10.0)
    assert core.utilisation() == pytest.approx(0.4)


def test_core_utilisation_does_not_count_work_ahead_of_the_clock():
    # A burst is reserved in one call, so busy_time is credited ahead of
    # the clock: a reading mid-burst counts only what has elapsed.
    env = Environment()
    core = Core(env)
    env.run(until=10.0)
    core.reserve(env.now, 22.0)           # busy over [10, 32]
    assert core.busy_time == 22.0
    assert core.busy_time_at(12.5) == 2.5
    assert core.busy_time_at(32.0) == core.busy_time_at(40.0) == 22.0
    env.run(until=20.0)
    assert core.utilisation() == pytest.approx(0.5)
    env.run(until=44.0)
    assert core.utilisation() == pytest.approx(0.5)


def test_core_rejects_negative_duration():
    core = Core(Environment())
    with pytest.raises(ValueError):
        core.reserve(0.0, -1.0)


# -------------------------------------------------------------------- NIC
def test_nic_line_rate_64b_is_14_88_mpps():
    assert nic_line_rate_mpps(64) == pytest.approx(14.88, abs=0.01)


def test_nic_wire_time_serialises_frames():
    env = Environment()
    nic = Nic(env, SimParams())
    # Two frames offered at t=0: the second queues behind the first.
    done = [nic.transmit(64), nic.transmit(64)]
    per_frame = (64 + 20) * 8 / 10000.0
    assert done[0] == pytest.approx(per_frame)
    assert done[1] == pytest.approx(2 * per_frame)


def test_nic_rejects_nonpositive_size():
    nic = Nic(Environment(), SimParams())
    with pytest.raises(ValueError):
        nic.wire_time_us(0)


# ------------------------------------------------------------------- Pool
def test_pool_accounting_and_overhead():
    pool = PacketPool(capacity=10)
    pool.alloc(1000)
    pool.alloc(64, is_copy=True)
    assert pool.bytes_in_use == 1064
    assert pool.copy_overhead_fraction() == pytest.approx(0.064)
    pool.free(64, is_copy=True)
    assert pool.in_use == 1
    # Cumulative accounting survives frees.
    assert pool.copy_overhead_fraction() == pytest.approx(0.064)


def test_pool_exhaustion():
    pool = PacketPool(capacity=1)
    pool.alloc(10)
    with pytest.raises(PoolExhaustedError):
        pool.alloc(10)


def test_pool_rejects_oversized_packet():
    pool = PacketPool(capacity=4)
    pool.alloc(SLOT_BYTES)
    with pytest.raises(ValueError):
        pool.alloc(SLOT_BYTES + 1)


def test_pool_free_without_alloc():
    with pytest.raises(ValueError):
        PacketPool().free(10)


# ------------------------------------------------------------------ Stats
def test_latency_stats_mean_and_percentiles():
    stats = LatencyStats()
    for value in (100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0):
        stats.record(value)  # the first tenth is warm-up
    assert stats.mean == pytest.approx(5.0)
    assert stats.median == pytest.approx(5.0)
    assert stats.pct(100.0) == 9.0
    assert stats.max == 9.0


def test_latency_stats_warmup_skips_prefix():
    stats = LatencyStats()
    for value in (100.0,) + (1.0,) * 9:
        stats.record(value)
    assert stats.mean == pytest.approx(1.0)


def test_latency_stats_rejects_negative():
    with pytest.raises(ValueError):
        LatencyStats().record(-1.0)


def test_percentile_interpolates():
    assert percentile([0.0, 10.0], 50.0) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 150.0)


def test_rate_meter_mpps():
    meter = RateMeter()
    for t in (0.0, 1.0, 2.0, 3.0):
        meter.record_delivery(t)
    assert meter.mpps() == pytest.approx(1.0)
    meter.record_drop()
    assert meter.loss_fraction == pytest.approx(0.2)


# ----------------------------------------------------------------- Params
def test_params_nf_service_with_cycles():
    params = SimParams()
    base = params.nf_service("firewall")
    assert params.nf_service("firewall", extra_cycles=3000) == pytest.approx(base + 1.0)


def test_params_unknown_nf_rejected():
    with pytest.raises(KeyError):
        SimParams().nf_service("quantum-nf")


def test_params_copy_cost_monotonic():
    params = SimParams()
    assert params.copy_cost_us(64) < params.copy_cost_us(1500)
    with pytest.raises(ValueError):
        params.copy_cost_us(-1)


def test_params_with_overrides_is_a_copy():
    params = SimParams()
    tweaked = params.with_overrides(nic_io_us=99.0)
    assert tweaked.nic_io_us == 99.0
    assert params.nic_io_us != 99.0


def test_params_merger_capacity_matches_paper():
    # One merger instance at parallelism degree 2 handles ~10.7 Mpps
    # (§6.3.3).
    params = SimParams()
    demand = params.merger_base_us
    assert 1.0 / demand == pytest.approx(10.7, abs=0.1)


def test_vm_params_cost_more_than_containers():
    # §7: containers are lighter-weight than VMs; the VM parameter set
    # pays more per stage and per packet everywhere it differs.
    from repro.sim import VM_PARAMS

    defaults = SimParams()
    assert VM_PARAMS.batch_wait_us > defaults.batch_wait_us
    assert VM_PARAMS.nf_runtime_us > defaults.nf_runtime_us
    assert VM_PARAMS.classifier_tag_us > defaults.classifier_tag_us
    assert VM_PARAMS.merger_base_us > defaults.merger_base_us
    # Same NF service times -- only the virtualisation substrate differs.
    assert VM_PARAMS.nf_service_us == defaults.nf_service_us


def test_window_utilisation_of_a_burst_straddling_a_window_edge():
    # A 22 us VPN burst reserved in one call straddles two 12.5 us window
    # edges.  Read off ``busy_time`` alone the probe would say 1.0 (all
    # 22 us credited in the first window, clamped) then 0.0, 0.0.
    from repro.dataplane import NFPServer

    env = Environment()
    server = NFPServer(env, SimParams())
    core = server.classifier_core
    probe = server.probes()[f"core.{core.name}.window_util"]
    env.run(until=10.0)
    core.reserve(env.now, 22.0)                      # busy over [10, 32]
    readings = []
    for edge in (12.5, 25.0, 37.5, 50.0):
        env.run(until=edge)
        readings.append(probe())
    assert readings == pytest.approx([0.2, 1.0, 0.56, 0.0])
    assert sum(readings) * 12.5 == pytest.approx(core.busy_time)
