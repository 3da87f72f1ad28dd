"""Unit tests for the latency-breakdown instrumentation."""

import pytest

from repro.core import Orchestrator, Policy
from repro.eval import latency_breakdown, measure_nfp


def test_segments_cover_the_whole_path():
    chain = ["vpn", "monitor", "firewall", "loadbalancer"]
    breakdown = latency_breakdown(chain, packets=600, seed=7)
    names = set(breakdown.segments)
    assert {"ingest", "stage 0", "stage 1", "stage 2", "egress"} <= names
    assert breakdown.packets == 600
    assert all(v >= 0 for v in breakdown.segments.values())


def test_breakdown_total_matches_measured_latency():
    chain = ["ids", "monitor", "loadbalancer"]
    breakdown = latency_breakdown(chain, packets=800, seed=3)
    measured = measure_nfp(
        Orchestrator().compile(Policy.from_chain(chain)).graph,
        packets=800, seed=3,
    )
    # Warm-up trimming differs slightly (the breakdown averages all
    # delivered packets), so allow a modest tolerance.
    assert breakdown.total_us == pytest.approx(measured.latency_mean_us, rel=0.15)


def test_heavy_nf_stage_dominates():
    breakdown = latency_breakdown(["ids", "monitor", "loadbalancer"],
                                  packets=600)
    assert breakdown.dominant() == "stage 0"  # the IDS
    assert breakdown.share("stage 0") > 0.3


def test_shares_sum_to_one():
    breakdown = latency_breakdown(["firewall", "monitor"], packets=500)
    assert sum(breakdown.share(name) for name in breakdown.segments) == (
        pytest.approx(1.0)
    )
    assert "LatencyBreakdown" in str(breakdown)
    assert len(breakdown.rows()) == len(breakdown.segments)
