"""Property tests: windowed delta histograms partition the event stream.

The design invariant of :mod:`repro.telemetry.timeseries`: every
recorded sample lands in exactly one window's delta histogram, so the
merge of all windows (evicted ones included) reproduces the whole-run
cumulative histogram exactly -- for any sample stream, any window
boundaries, and any ring capacity.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.telemetry import Sampler, TelemetryHub

# (timestamp delta, latency sample) streams; timestamps strictly advance.
samples = st.lists(
    st.tuples(
        st.floats(min_value=0.1, max_value=500.0,
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=80,
)


def run_armed(sampler, stream, record):
    """``record(value)`` at each stream instant, the sampler armed on
    the same DES clock; then the final partial window is flushed."""
    env = Environment()
    sampler.arm(env)
    now = 0.0
    for gap, value in stream:
        now += gap
        env.call_at(now, record, value)
    env.run()
    sampler.flush(env.now)


@given(stream=samples,
       window_us=st.floats(min_value=1.0, max_value=200.0),
       capacity=st.integers(min_value=1, max_value=8))
@settings(max_examples=150, deadline=None)
def test_window_merge_reproduces_cumulative_histogram(stream, window_us,
                                                      capacity):
    hub = TelemetryHub()
    sampler = Sampler(hub, window_us=window_us, capacity=capacity)
    run_armed(sampler, stream,
              lambda value: hub.observe("latency_us", value))

    merged = sampler.series.merged_histogram("latency_us")
    cumulative = hub.registry.histograms["latency_us"]
    assert merged is not None
    assert merged.count == cumulative.count == len(stream)
    assert merged.buckets == cumulative.buckets
    # Sum survives partitioning to float accuracy.
    assert abs(merged.total - cumulative.total) <= 1e-6 * max(
        1.0, abs(cumulative.total))


@given(stream=samples, window_us=st.floats(min_value=1.0, max_value=200.0))
@settings(max_examples=100, deadline=None)
def test_counter_window_deltas_partition_the_total(stream, window_us):
    hub = TelemetryHub()
    sampler = Sampler(hub, window_us=window_us, capacity=4)
    run_armed(sampler, stream, lambda _: hub.inc("tx.packets"))
    assert sampler.series.total("tx.packets") == len(stream)
    assert (sampler.series.total("tx.packets")
            == hub.registry.counter_value("tx.packets"))


@given(stream=samples,
       window_us=st.floats(min_value=1.0, max_value=200.0),
       capacity=st.integers(min_value=1, max_value=4))
@settings(max_examples=100, deadline=None)
def test_peak_is_eviction_proof(stream, window_us, capacity):
    hub = TelemetryHub()
    sampler = Sampler(hub, window_us=window_us, capacity=capacity)
    deltas = []
    pending = [0]

    def record(_):
        hub.inc("tx.packets")
        pending[0] += 1

    def close(window):
        deltas.append(pending[0])
        pending[0] = 0

    sampler.subscribe(close)
    run_armed(sampler, stream, record)
    peak = sampler.series.peak("tx.packets")
    assert peak is not None
    assert peak[0] == max(deltas)
