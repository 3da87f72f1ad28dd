"""Unit tests for windowed time-series telemetry (Sampler/TimeSeries)."""

import pytest

from repro.sim.engine import Environment
from repro.telemetry import Sampler, TelemetryHub, TimeSeries, Tracer, sparkline
from repro.telemetry.timeseries import SPARK_WIDTH, Window


# --------------------------------------------------------------- sparkline
def test_sparkline_empty_and_flat():
    assert sparkline([]) == ""
    assert sparkline([0.0, 0.0, 0.0]) == "   "


def test_sparkline_scales_to_peak():
    line = sparkline([0.0, 5.0, 10.0])
    assert len(line) == 3
    assert line[0] == " "
    assert line[2] == "@"


def test_sparkline_downsamples_preserving_peaks():
    values = [0.0] * (10 * SPARK_WIDTH)
    values[37] = 100.0
    line = sparkline(values)
    assert len(line) == SPARK_WIDTH
    assert "@" in line  # the lone peak survives max-downsampling


# ------------------------------------------------------------------ window
def test_window_value_prefers_gauge_over_counter():
    window = Window(index=0, start_us=0.0, end_us=10.0,
                    counters={"x": 3}, gauges={"x": 0.5})
    assert window.value("x") == 0.5
    assert window.value("missing") is None
    assert window.duration_us == 10.0


# -------------------------------------------------------------- timeseries
def test_timeseries_eviction_keeps_totals_and_peaks_exact():
    series = TimeSeries(capacity=2)
    for index, delta in enumerate([5, 9, 2, 1]):
        series.append(Window(index=index, start_us=float(index),
                             end_us=float(index + 1),
                             counters={"tx": delta}))
    assert len(series) == 2            # only 2 retained...
    assert series.total_windows == 4   # ...but all 4 accounted
    assert series.total("tx") == 17    # evicted remainder + retained
    assert series.peak("tx") == (9.0, 1)  # peak survived its eviction


def test_timeseries_counter_values_are_dense():
    series = TimeSeries()
    series.append(Window(index=0, start_us=0.0, end_us=1.0,
                         counters={"tx": 4}))
    series.append(Window(index=1, start_us=1.0, end_us=2.0))
    series.append(Window(index=2, start_us=2.0, end_us=3.0,
                         counters={"tx": 2}))
    # values() skips silent windows; counter_values() keeps the axis dense.
    assert series.values("tx") == [4.0, 2.0]
    assert series.counter_values("tx") == [4.0, 0.0, 2.0]


def test_timeseries_rejects_zero_capacity():
    with pytest.raises(ValueError):
        TimeSeries(capacity=0)


# ----------------------------------------------------------------- sampler
def test_sampler_snapshots_counter_deltas_not_cumulative_values():
    hub = TelemetryHub()
    sampler = Sampler(hub, window_us=10.0)
    hub.inc("tx.packets", 7)
    first = sampler.sample(10.0)
    hub.inc("tx.packets", 3)
    second = sampler.sample(20.0)
    assert first.counters["tx.packets"] == 7
    assert second.counters["tx.packets"] == 3
    # Silent metric: not materialised in the window at all.
    third = sampler.sample(30.0)
    assert "tx.packets" not in third.counters


def test_sampler_histogram_deltas_partition_the_cumulative_histogram():
    hub = TelemetryHub()
    sampler = Sampler(hub, window_us=10.0)
    hub.observe("latency_us", 5.0)
    hub.observe("latency_us", 50.0)
    sampler.sample(10.0)
    hub.observe("latency_us", 500.0)
    sampler.sample(20.0)
    merged = sampler.series.merged_histogram("latency_us")
    cumulative = hub.registry.histograms["latency_us"]
    assert merged.count == cumulative.count == 3
    assert merged.buckets == cumulative.buckets
    assert merged.total == pytest.approx(cumulative.total)


def test_sampler_windows_without_histogram_activity_stay_empty():
    hub = TelemetryHub()
    sampler = Sampler(hub, window_us=10.0)
    hub.observe("latency_us", 5.0)
    sampler.sample(10.0)
    quiet = sampler.sample(20.0)
    assert "latency_us" not in quiet.histograms


def test_sampler_probes_and_subscribers():
    hub = TelemetryHub()
    depth = {"value": 3.0}
    sampler = Sampler(hub, window_us=10.0)
    sampler.add_probes({"ring.depth": lambda: depth["value"]})
    seen = []
    sampler.subscribe(seen.append)
    window = sampler.sample(10.0)
    assert window.gauges["ring.depth"] == 3.0
    assert seen == [window]


def test_sampler_armed_window_respects_window_size():
    hub = TelemetryHub()
    env = Environment()
    sampler = Sampler(hub, window_us=100.0)
    sampler.arm(env)
    env.call_at(50.0, hub.inc, "work.done")
    env.call_at(120.0, hub.inc, "work.done")
    env.run()
    # Nothing closes at 50: the first window runs its full 100us.
    first = sampler.series.windows[0]
    assert first.end_us == 100.0
    assert first.counters == {"work.done": 1}


def test_sampler_armed_on_des_env_samples_and_retires():
    hub = TelemetryHub(tracer=Tracer())
    env = Environment()
    sampler = Sampler(hub, window_us=10.0)
    sampler.arm(env)

    for k in range(1, 6):
        env.call_later(7.0 * k, hub.inc, "work.done")
    env.run()  # must drain: the armed sampler retires with the queue
    assert sampler.series.total("work.done") == 5
    # Windows carry DES timestamps on 10us boundaries.
    assert all(w.end_us % 10.0 == 0.0 for w in sampler.series.windows)


def test_sampler_flush_closes_final_partial_window():
    hub = TelemetryHub()
    sampler = Sampler(hub, window_us=100.0)
    sampler.sample(100.0)
    hub.inc("tx.packets", 2)
    window = sampler.flush(130.0)
    assert window is not None
    assert window.counters["tx.packets"] == 2
    # A second flush at the same instant adds nothing.
    assert sampler.flush(130.0) is None
