"""Unit tests for the eval helpers and the modular (Fig. 15) package."""

import pytest

from repro.core import Policy, compile_policy
from repro.eval import (
    bess_capacity,
    compute_pair_statistics,
    expected_overhead,
    forced_parallel,
    forced_sequential,
    forced_structure,
    nfp_capacity,
    nfp_latency_floor,
    onvm_capacity,
    render_table,
)
from repro.modular import (
    Block,
    BlockPipeline,
    alert,
    build_firewall_pipeline,
    build_ips_pipeline,
    dpi,
    fig15,
    header_classifier,
    nfp_parallelize,
    openbox_merge,
    read_packets,
)
from repro.sim import DEFAULT_PARAMS
from repro.traffic import PacketSizeDistribution


# ---------------------------------------------------------- forced graphs
def test_forced_sequential_structure():
    graph = forced_sequential(["firewall", "firewall"])
    assert graph.is_sequential
    assert graph.equivalent_length == 2


def test_forced_parallel_no_copy_shares_buffer():
    graph = forced_parallel(["firewall"] * 3, with_copy=False)
    assert graph.equivalent_length == 1
    assert graph.num_versions == 1
    assert graph.total_count == 3


def test_forced_parallel_copy_gives_each_nf_a_version():
    graph = forced_parallel(["firewall"] * 3, with_copy=True)
    assert graph.num_versions == 3
    assert len(graph.copies) == 2
    assert all(c.header_only for c in graph.copies)


def test_forced_parallel_payload_nf_gets_full_copy():
    graph = forced_parallel(["vpn", "vpn"], with_copy=True)
    assert not graph.copies[0].header_only


def test_forced_parallel_writer_generates_modify_mos_only():
    graph = forced_parallel(["loadbalancer", "loadbalancer"], with_copy=True)
    assert graph.merge_ops  # sip/dip modifies
    graph_vpn = forced_parallel(["vpn", "vpn"], with_copy=True)
    from repro.core import MergeOpKind

    assert all(op.kind is MergeOpKind.MODIFY for op in graph_vpn.merge_ops)


def test_forced_structure_widths():
    graph = forced_structure(["firewall"] * 4, (1, 2, 1))
    assert [len(s) for s in graph.stages] == [1, 2, 1]
    with pytest.raises(ValueError):
        forced_structure(["firewall"] * 4, (1, 2))
    with pytest.raises(ValueError):
        forced_structure(["firewall"] * 2, (2, 0))


# -------------------------------------------------------- capacity model
def test_nfp_capacity_sequential_forwarder_reaches_line_rate():
    graph = forced_sequential(["forwarder"] * 3)
    report = nfp_capacity(graph, DEFAULT_PARAMS)
    assert report.bottleneck == "nic"
    assert report.mpps == pytest.approx(14.88, abs=0.01)


def test_nfp_capacity_parallel_firewalls_near_paper():
    graph = forced_parallel(["firewall"] * 3, with_copy=False)
    report = nfp_capacity(graph, DEFAULT_PARAMS)
    assert 10.0 < report.mpps < 11.5  # paper: 10.90


def test_nfp_capacity_slow_nf_bound():
    graph = forced_sequential(["ids"])
    report = nfp_capacity(graph, DEFAULT_PARAMS)
    assert report.bottleneck.startswith("ids")
    assert report.mpps < 2.0


def test_onvm_capacity_manager_bound():
    report = onvm_capacity(["firewall"] * 3, DEFAULT_PARAMS)
    assert report.bottleneck == "manager"
    assert 8.5 < report.mpps <= 9.38  # paper: 9.38, minus per-hop ops


def test_bess_capacity_scales_with_cores_to_line_rate():
    # No BESS run sets a busy loop, so its RTC cores demand nothing and
    # the NIC's 64-byte line rate bounds any core count.
    report = bess_capacity(DEFAULT_PARAMS)
    assert report.bottleneck == "nic"
    assert report.mpps == DEFAULT_PARAMS.line_rate_mpps(64)


def test_latency_floor_orders_structures():
    seq = nfp_latency_floor(forced_sequential(["firewall"] * 4), DEFAULT_PARAMS)
    par = nfp_latency_floor(
        forced_parallel(["firewall"] * 4, with_copy=False), DEFAULT_PARAMS
    )
    assert par < seq


# ------------------------------------------------------------- pair stats
def test_pair_statistics_match_paper_within_tolerance():
    stats = compute_pair_statistics()
    # §4.3: 53.8% of NF pairs parallelizable, 41.5% without copying.
    assert abs(stats.parallelizable - 0.538) < 0.03
    assert abs(stats.no_copy - 0.415) < 0.03
    assert stats.with_copy == pytest.approx(0.123, abs=0.03)
    assert stats.parallelizable + stats.not_parallelizable == pytest.approx(1.0)


def test_pair_statistics_per_pair_entries():
    stats = compute_pair_statistics()
    from repro.core import Parallelism

    assert stats.per_pair[("firewall", "monitor")] is Parallelism.NO_COPY
    assert stats.per_pair[("monitor", "loadbalancer")] is Parallelism.WITH_COPY
    assert stats.per_pair[("nat", "caching")] is Parallelism.NOT_PARALLELIZABLE


# ---------------------------------------------------------------- overhead
def test_theoretical_overhead_equation():
    # §6.3.1: ro = 64 x (d - 1) / s, over a one-size distribution.
    def at(size, degree):
        return expected_overhead(degree, PacketSizeDistribution([(size, 1.0)]))

    assert at(64, 2) == pytest.approx(1.0)
    assert at(1500, 2) == pytest.approx(64 / 1500)
    assert at(724, 1) == 0.0


def test_expected_overhead_matches_paper_8_8_percent():
    assert expected_overhead(2) == pytest.approx(0.088, abs=0.002)
    assert expected_overhead(3) == pytest.approx(0.177, abs=0.004)


# ------------------------------------------------------------------ report
def test_render_table_alignment_and_validation():
    text = render_table(["a", "bb"], [[1, 2.5], ["x", "y"]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "2.50" in text
    with pytest.raises(ValueError):
        render_table(["a"], [[1, 2]])


# ---------------------------------------------------------------- modular
def test_openbox_merge_shares_prefix():
    merged = openbox_merge(build_firewall_pipeline(), build_ips_pipeline())
    names = merged.block_names()
    assert names.count("read_packets") == 1
    assert names.count("header_classifier") == 1
    assert "dpi" in names


def test_openbox_merge_no_shared_prefix():
    a = BlockPipeline("a", [dpi()])
    b = BlockPipeline("b", [read_packets()])
    merged = openbox_merge(a, b)
    assert len(merged) == 2


def test_nfp_parallelize_respects_control_deps():
    result = fig15()
    description = result.openbox_nfp.describe()
    # Fig. 15: Alert(firewall) beside the DPI.
    assert "(alert#firewall | dpi)" in description
    assert description.startswith("read_packets -> header_classifier")
    # Output strictly last.
    assert description.endswith("output")


def test_fig15_cost_ordering():
    result = fig15()
    assert result.openbox_nfp_cost < result.openbox_cost < result.sequential_cost
    assert 0 < result.reduction_vs_openbox() < 1
    assert result.reduction_vs_sequential() > result.reduction_vs_openbox()


def test_staged_pipeline_critical_path():
    staged = nfp_parallelize(
        BlockPipeline("p", [read_packets(), header_classifier(),
                            alert("a", depends_on=("header_classifier",)),
                            dpi()])
    )
    # alert (1.0) runs beside dpi (12.0): only the max counts.
    assert staged.critical_path() == pytest.approx(0.5 + 1.5 + 12.0)


def test_block_validation():
    with pytest.raises(ValueError):
        BlockPipeline("empty", [])
    with pytest.raises(ValueError):
        Block("x", [], -1)
