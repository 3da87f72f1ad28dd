"""Integration: SLO watchdog catches a fault episode end to end.

The west-east chain (ids | monitor | loadbalancer) compiles to a
multi-notifier graph (total_count=3), so hanging one parallel NF
strands AT entries mid-rendezvous: the merger's AT timeout fires, the
watch rule goes FIRING while the episode lasts, and CLEARS once the
wedged cohort has been reclaimed.  Critical-path attribution must pin
the p99 tail on exposed merge wait -- the 50us AT timeout surfacing as
rendezvous stall -- not on NF service time.
"""

import pytest

from repro.core import Policy, compile_policy
from repro.dataplane.flowsplit import assign_instances, packet_key
from repro.eval import WEST_EAST_CHAIN, measure_nfp
from repro.net import build_packet
from repro.telemetry import (
    Sampler,
    TelemetryHub,
    Tracer,
    Watcher,
    critpath_report,
)


@pytest.fixture(scope="module")
def hang_episode():
    """One west-east run with the monitor NF hung mid-stream."""
    graph = compile_policy(Policy.from_chain(list(WEST_EAST_CHAIN))).graph
    tracer = Tracer()
    hub = TelemetryHub(tracer=tracer)
    sampler = Sampler(hub, window_us=1000.0)
    watcher = Watcher(
        ["merger.at_timeout > 0", "ring.occupancy > 0.8 for 3 windows"],
        hub=hub,
    ).attach(sampler)
    result = measure_nfp(graph, packets=600, seed=7, telemetry=hub,
                         faults="hang:monitor:pkt=200", sampler=sampler)
    return hub, tracer, sampler, watcher, result


def test_at_timeout_alert_fires_then_clears(hang_episode):
    hub, _, sampler, watcher, _ = hang_episode
    # The hang really produced partial merges...
    assert hub.registry.counter_value("merger.at_timeout") > 0
    # ...and the watchdog saw them as a bounded episode, not a steady
    # state: exactly one firing->cleared cycle, nothing still firing.
    rule = watcher.rules[0]
    assert rule.text == "merger.at_timeout > 0"
    assert rule.fired == 1 and rule.cleared == 1
    assert watcher.still_firing() == []
    log = watcher.alert_log()
    assert "FIRING" in log and "CLEARED" in log
    # Alert counts are mirrored into the hub for exporters to scrape.
    assert hub.registry.counter_value(
        "watch.merger.at_timeout > 0.fired") == 1


def test_alert_windows_bracket_the_episode(hang_episode):
    _, _, sampler, watcher, _ = hang_episode
    firing = [e for e in watcher.events if e.state == "firing"]
    cleared = [e for e in watcher.events if e.state == "cleared"]
    assert len(firing) == 1 and len(cleared) == 1
    assert firing[0].window_index < cleared[0].window_index
    # The time series actually retained the AT-timeout burst: window
    # deltas account for at least the breach the watcher reacted to.
    assert sampler.series.total("merger.at_timeout") >= firing[0].value
    peak = sampler.series.peak("merger.at_timeout")
    assert peak is not None and peak[0] > 0


def test_critpath_attributes_tail_to_merge_wait(hang_episode):
    _, tracer, _, _, result = hang_episode
    report = critpath_report(tracer.traces().values())
    assert report.count > 0
    # The AT timeout (50us default) dwarfs per-NF service time, so the
    # p99 cohort's latency excess over the mean must be charged to the
    # rendezvous stall, not to classify/copy/branch work.
    assert report.dominant_tail_segment() == "merge_wait"
    assert report.tail_delta()["merge_wait"] > 0.0
    # And the decomposition stays honest: explained + residual == total.
    for path in report.paths:
        assert (path.explained_us + path.segments["residual"]
                == pytest.approx(path.total_us))


def test_run_survives_the_episode(hang_episode):
    hub, _, _, _, result = hang_episode
    # The hang costs the wedged cohort but the run completes and most
    # traffic is delivered.
    assert result.delivered > 400
    assert result.latency_p99_us > 0.0


# ------------------------------------------------- rss.pinned_flows probe
def test_keyless_flows_on_scaled_nfs_bump_pinned_counter():
    # Only a frame with no flow key at all (not IPv4, cut short) pins.
    arp = build_packet()
    arp.buf[12:14] = b"\x08\x06"
    hub = TelemetryHub()
    assert assign_instances(packet_key(arp), {"ids": 2}, telemetry=hub) == {
        "ids": 0}
    assert hub.registry.counter_value("rss.pinned_flows") == 1


def test_keyed_or_unscaled_flows_do_not_count_as_pinned():
    # ICMP and fragments have a key (ports 0): they hash, not pin.
    icmp = build_packet()
    icmp.ipv4.protocol = 1
    fragment = build_packet()
    fragment.ipv4.fragment_offset = 64
    hub = TelemetryHub()
    for pkt in (build_packet(), icmp, fragment):
        assign_instances(packet_key(pkt), {"ids": 2}, telemetry=hub)
    assign_instances(None, {}, telemetry=hub)  # nothing scaled
    assert hub.registry.counter_value("rss.pinned_flows") == 0
