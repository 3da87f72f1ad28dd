"""Integration: the paper's headline claims hold in this reproduction.

Every experiment of §6/§7 that runs the DES is one ``repro.bench``
scenario whose figure or table ``benchmarks/results/baseline.json``
pins, and ``test_model_clock_golden.py`` holds each pinned row equal to
a fresh run.  This module reads those rows and asserts the paper's
shapes on them -- who wins, where curves cross, the headline values --
without re-running any experiment (``test_experiments_smoke.py`` checks
the same tables' structure).  The experiments with no clock reading
(§4.3's pair statistics, the §6.3.1 closed form, the OP#1,
merger-instance and XOR ablations) run here directly: they are exact
and take milliseconds.  EXPERIMENTS.md has the paper-vs-measured notes.
"""

import pytest

from repro.core import Parallelism
from repro.core.actions import Verb
from repro.core.dependency import DependencyTable
from repro.eval import (
    LoadPoint,
    WEST_EAST_CHAIN,
    compute_pair_statistics,
    expected_overhead,
    forced_parallel,
    nfp_capacity,
)
from repro.eval.harness import as_graph
from repro.multiserver.latency import link_cost_us
from repro.net import HEADER_COPY_BYTES
from repro.sim import DEFAULT_PARAMS
from tests.support.pinned_tables import (
    pinned_records,
    pinned_scenario,
    pinned_table,
)


# ---------------------------------------------------------------- §4.3
def test_claim_53_8_percent_parallelizable():
    stats = compute_pair_statistics()
    assert stats.parallelizable == pytest.approx(0.538, abs=0.03)
    assert stats.no_copy == pytest.approx(0.415, abs=0.03)


# ---------------------------------------------------------------- Fig. 7
def test_claim_nfp_sequential_matches_onvm_and_wins_throughput():
    table = pinned_table("fig7_sequential_chains")
    rows_64 = [r for r in table.rows if r[3] == 64]
    for row in rows_64:
        # NFP sequential chains hit line rate; OpenNetVM is manager-bound.
        assert row[5] > 14.5
        assert row[5] == pytest.approx(14.88, abs=0.05)
        assert row[4] < 9.5
        # Latencies comparable (NFP within 2x of OpenNetVM either way).
        assert row[2] < 2 * row[1]
    # Large packets: both systems line-rate limited (rates converge).
    rows_1500 = [r for r in table.rows if r[3] == 1500]
    for row in rows_1500:
        assert abs(row[4] - row[5]) / row[6] < 0.05


# ---------------------------------------------------------------- Fig. 8
def test_claim_latency_benefit_grows_with_nf_complexity():
    table = pinned_table("fig8_nf_complexity")
    by_nf = {row[0]: row for row in table.rows}
    reductions = {
        nf: 1 - row[3] / row[2]  # parallel-no-copy vs NFP-sequential
        for nf, row in by_nf.items()
    }
    # Benefit grows with complexity; heavy NFs gain substantially.
    assert reductions["vpn"] > reductions["firewall"] > reductions["forwarder"]
    assert reductions["vpn"] > 0.2
    assert reductions["ids"] > 0.2
    # Copy variant always costs more latency than no-copy (§6.3.2).
    for row in table.rows:
        assert row[4] > row[3]
    # Throughput ordering: cheap NFs merger/classifier-bound (~10.7),
    # heavy NFs NF-bound and far slower.
    assert by_nf["forwarder"][7] > 5 * by_nf["vpn"][7]


# ---------------------------------------------------------------- Fig. 9
def test_claim_reduction_grows_with_busy_cycles():
    table = pinned_table("fig9_cycles_sweep")
    reductions = dict(zip(table.column("cycles"),
                          table.column("nocopy_reduction_pct")))
    # Reduction grows with complexity and is substantial at the top end
    # (paper: ~45% at 3000 cycles).
    assert reductions[3000] > reductions[300]
    assert reductions[3000] > 25.0
    # Latency grows monotonically with cycles in every configuration.
    for column in ("nfp_seq_lat", "par_nocopy_lat", "onvm_seq_lat"):
        values = table.column(column)
        assert all(b > a * 0.95 for a, b in zip(values, values[1:]))
    # Throughput falls as the NF gets heavier.
    rates = table.column("par_mpps")
    assert rates[0] > rates[-1]
    assert rates[-1] < 1.2  # ~1 Mpps at 3000 cycles (Fig. 9b)


# --------------------------------------------------------------- Fig. 11
def test_claim_reduction_grows_with_parallelism_degree():
    table = pinned_table("fig11_parallelism_degree")
    nocopy = dict(zip(table.column("degree"),
                      table.column("nocopy_reduction_pct")))
    copy = dict(zip(table.column("degree"), table.column("copy_reduction_pct")))
    # Higher degree -> bigger reduction, for both variants (paper: no
    # copy 33% -> 52%, copy up to 32%).
    assert nocopy[5] > nocopy[3] > nocopy[2]
    assert copy[5] > copy[2]
    assert nocopy[2] > 10.0
    assert nocopy[5] > 40.0
    # Copy variant stays below the no-copy one at every degree.
    for degree in (2, 3, 4, 5):
        assert copy[degree] < nocopy[degree]
    # Throughput roughly flat across degrees ("not much affected").
    rates = table.column("par_nocopy_mpps")
    assert max(rates) / min(rates) < 1.2


# --------------------------------------------------------------- Fig. 12
def test_claim_latency_tracks_equivalent_chain_length():
    table = pinned_table("fig12_graph_structures")
    # Latency ordered by equivalent chain length, row by row...
    by_length = sorted(table.rows, key=lambda r: r[1])
    for shorter, longer in zip(by_length, by_length[1:]):
        if shorter[1] < longer[1]:
            assert shorter[2] < longer[2] * 1.05
    # ...and the mean no-copy latency of each length strictly so.
    grouped = {}
    for row in table.rows:
        grouped.setdefault(row[1], []).append(row[2])
    means = [sum(v) / len(v) for _, v in sorted(grouped.items())]
    assert means == sorted(means)
    # The all-parallel graph (equivalent length 1) beats sequential by a
    # wide margin.
    rows = {row[0]: row for row in table.rows}
    assert rows["(2) all-parallel"][2] < 0.7 * rows["(1) sequential"][2]
    # Throughput does not collapse for any structure.
    assert min(table.column("nocopy_mpps")) > 4.0


# --------------------------------------------------------------- Fig. 13
def _fig13_rows():
    table = pinned_table("fig13_real_world_chains")
    rows = {row[0]: row for row in table.rows}
    return rows["north-south"], rows["west-east"]


def test_claim_north_south_reduction_zero_overhead():
    ns, _ = _fig13_rows()
    assert ns[4] > 5.0  # paper: 12.9%
    # Resource overhead exactly as the paper derives.
    assert ns[5] == 0.0  # paper: 0%


def test_claim_west_east_reduction_with_8_8_pct_overhead():
    ns, we = _fig13_rows()
    assert we[4] > 10.0  # paper: 35.9%
    # West-east benefits about as much as north-south or more.
    assert we[4] > ns[4] * 0.8
    assert abs(we[5] - 8.8) < 0.5  # paper: 8.8%


# --------------------------------------------------------------- Table 4
def test_claim_table4_orderings():
    table = pinned_table("table4_rtc_comparison")
    for row in table.rows:
        onvm_lat, nfp_lat, bess_lat = row[2], row[3], row[4]
        onvm_mpps, nfp_mpps, bess_mpps = row[5], row[6], row[7]
        # Latency ordering: BESS < NFP < OpenNetVM.
        assert bess_lat < nfp_lat < onvm_lat
        # Throughput ordering and magnitudes (paper: ~9.38 / ~10.9 /
        # ~14.7 Mpps).
        assert onvm_mpps < nfp_mpps < bess_mpps
        assert abs(onvm_mpps - 9.38) < 0.5
        assert onvm_mpps == pytest.approx(9.2, abs=0.4)
        assert abs(nfp_mpps - 10.9) < 0.6
        assert abs(bess_mpps - 14.7) < 0.3

    # NFP's latency grows far slower with chain length than OpenNetVM's.
    onvm_growth = table.rows[-1][2] - table.rows[0][2]
    nfp_growth = table.rows[-1][3] - table.rows[0][3]
    assert nfp_growth < 0.5 * onvm_growth


# ------------------------------------------------------ latency breakdown
def test_latency_breakdown_stage_0_dominates():
    segments = {}
    for row in pinned_records("latency_breakdown"):
        segments.setdefault(row["chain"], {})[row["segment"]] = row["mean_us"]
    ns, we = segments["north-south"], segments["west-east"]
    # The VPN stage dominates the north-south graph; the IDS dominates
    # west-east (both are the chains' expensive NFs).
    assert max(ns, key=ns.get) == "stage 0"
    assert max(we, key=we.get) == "stage 0"
    # West-east pays a visible merge/copy rendezvous; the copyless
    # north-south merge is cheap.
    assert we["merge"] > ns["merge"]


# ------------------------------------------------------------ load sweep
def test_load_sweep_knee():
    points = [LoadPoint(*row) for row in pinned_table("load_sweep").rows]
    capacity = nfp_capacity(as_graph(list(WEST_EAST_CHAIN)),
                            DEFAULT_PARAMS).mpps
    below = [p for p in points if p.offered_mpps < capacity * 0.96]
    above = [p for p in points if p.offered_mpps > capacity * 1.2]
    assert below and above
    # Below the knee: delivered == offered, no loss.
    for point in below:
        assert abs(point.delivered_mpps - point.offered_mpps) < 0.05 * capacity
        assert not point.saturated
    # Above the knee: plateau at capacity, loss, inflated latency.
    for point in above:
        assert point.delivered_mpps < point.offered_mpps * 0.9
        assert point.latency_mean_us > below[0].latency_mean_us * 2


# ----------------------------------------------------------------- §6.3
def _merger_configs():
    return {(r["degree"], r["mergers"]): r
            for r in pinned_records("merger_load_balancing")}


def test_claim_single_merger_sustains_10_7_mpps():
    single = _merger_configs()[(2, 1)]
    # One instance at degree 2 lands at the paper's 10.7 Mpps and is
    # lossless at the measured load.
    assert abs(single["capacity_mpps"] - 10.7) < 0.4
    assert single["lossless"]


def test_claim_two_mergers_balance_higher_degrees():
    configs = _merger_configs()
    double, quad = configs[(5, 2)], configs[(4, 2)]
    # Two instances carry degree 4-5 without loss, balanced by PID hash.
    assert double["lossless"] and quad["lossless"]
    assert double["imbalance"] < 1.15
    assert quad["imbalance"] < 1.15


def test_claim_overhead_equation_8_8_percent():
    assert expected_overhead(2) == pytest.approx(0.088, abs=0.002)


def test_resource_overhead_matches_the_closed_form():
    # The simulated pool matches the paper's ro = 64 x (d-1) / s.
    for degree, theory, measured in pinned_table("overhead_resource").rows:
        assert measured == pytest.approx(theory, rel=0.05)


def test_claim_copy_merge_penalty_small():
    [(nocopy, copy, penalty)] = pinned_table("overhead_copy_merge").rows
    # Paper: ~15 us, and parallel-copy still beats sequential.
    assert 2.0 < penalty < 25.0
    # The penalty is a small fraction of the sequential baseline.
    assert penalty < 0.6 * nocopy


# -------------------------------------------------------------- ablations
def test_ablation_dirty_memory_reusing():
    """OP#1 off: R/W and W/W always copy, regardless of fields."""
    no_op1 = DependencyTable(overrides={
        (Verb.READ, Verb.WRITE): Parallelism.WITH_COPY,
        (Verb.WRITE, Verb.WRITE): Parallelism.WITH_COPY,
    })
    baseline = compute_pair_statistics()
    ablated = compute_pair_statistics(dependency_table=no_op1)
    # Total parallelizable share is unchanged; the copy-free share drops
    # (only pairs whose writes are disjoint from the peer's reads rely
    # on OP#1 -- a small but strictly positive slice of Table 2).
    assert ablated.parallelizable == pytest.approx(baseline.parallelizable,
                                                   abs=1e-9)
    assert ablated.no_copy < baseline.no_copy - 0.01
    assert ablated.with_copy > baseline.with_copy + 0.01


def test_ablation_header_only_copying():
    """OP#2 off: full-packet copies inflate memory overhead ~10x."""
    rows = {r["variant"]: r
            for r in pinned_records("ablation_header_only_copying")}
    header = rows["header-only (OP#2)"]["resource_overhead"]
    full = rows["full copies"]["resource_overhead"]
    assert header < 0.25
    assert full > 5 * header


def test_ablation_merger_instances():
    """More merger instances raise the merge-bound throughput ceiling."""
    graph = forced_parallel(["forwarder"] * 2, with_copy=False)
    capacities = [nfp_capacity(graph, DEFAULT_PARAMS, num_mergers=n).mpps
                  for n in (1, 2, 4)]
    # One merger is the bottleneck (~10.7 Mpps); a second shifts the
    # bottleneck to the classifier, after which more instances are moot.
    assert capacities[0] < capacities[1]
    assert capacities[1] == pytest.approx(capacities[2])


def test_ablation_xor_merge_memory():
    """§5.3's rejected XOR merger needs a full original copy per packet."""
    rows = []
    for size in (64, 256, 724, 1500):
        mo_cost = HEADER_COPY_BYTES  # header-only copy per parallel copy
        xor_cost = size  # full original retained for the XOR diff
        rows.append((size, mo_cost, xor_cost, xor_cost / mo_cost))
    # The XOR design is never cheaper and is ~11x worse at the mean
    # data-center packet size.
    assert all(row[2] >= row[1] for row in rows)
    assert rows[2][3] > 10


def test_ablation_containers_vs_vms():
    """§7: containers are "more light-weight ... higher performance"."""
    rows = {r["substrate"]: r
            for r in pinned_records("ablation_containers_vs_vms")}
    containers = rows["containers (prototype)"]
    vms = rows["VMs (§7 variant)"]
    assert containers["lat us"] < vms["lat us"]
    assert containers["Mpps"] >= vms["Mpps"]


# ------------------------------------------------------------ §7 scale
def test_cross_server_timed_penalty_is_about_one_link():
    """Timed DES pipeline: the per-link latency penalty vs one box."""
    result = pinned_scenario("cross_server_timed")
    rows = {r["setup"]: r for r in pinned_records("cross_server_timed")}
    single, multi = rows["single box"], rows["two boxes"]
    penalty = multi["latency_mean_us"] - single["latency_mean_us"]
    model = link_cost_us(DEFAULT_PARAMS, 64)
    assert multi["delivered"] == result.params["packets"]
    assert 0 < penalty < 3 * model
