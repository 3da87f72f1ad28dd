"""Evaluation harness: per-figure experiments, models, measurement."""

from .harness import (
    AutoscaleResult,
    MeasurementResult,
    as_graph,
    deployed_from_graph,
    measure_autoscale,
    measure_bess,
    measure_nfp,
    measure_onvm,
)
from .model import (
    CapacityReport,
    bess_capacity,
    nfp_capacity,
    nfp_latency_floor,
    onvm_capacity,
    placed_capacity,
)
from .forced import forced_parallel, forced_sequential, forced_structure
from .pair_stats import PairStatistics, TABLE2_NF_SET, compute_pair_statistics
from .correctness import ReplayReport, replay_chain
from .overhead import (
    MergerScalingResult,
    copy_merge_penalty,
    expected_overhead,
    merger_scaling,
    resource_overhead_curve,
)
from .experiments import (
    ExperimentTable,
    NORTH_SOUTH_CHAIN,
    WEST_EAST_CHAIN,
    fig7_sequential_chains,
    fig8_nf_complexity,
    fig9_cycles_sweep,
    fig11_parallelism_degree,
    fig12_graph_structures,
    fig13_real_world_chains,
    table4_rtc_comparison,
)
from .breakdown import LatencyBreakdown, latency_breakdown
from .load_sweep import LoadPoint, load_sweep
from .report import render_table

__all__ = [
    "MeasurementResult",
    "AutoscaleResult",
    "measure_nfp",
    "measure_autoscale",
    "measure_onvm",
    "measure_bess",
    "as_graph",
    "deployed_from_graph",
    "CapacityReport",
    "nfp_capacity",
    "placed_capacity",
    "onvm_capacity",
    "bess_capacity",
    "nfp_latency_floor",
    "forced_sequential",
    "forced_parallel",
    "forced_structure",
    "PairStatistics",
    "compute_pair_statistics",
    "TABLE2_NF_SET",
    "ReplayReport",
    "replay_chain",
    "expected_overhead",
    "resource_overhead_curve",
    "copy_merge_penalty",
    "merger_scaling",
    "MergerScalingResult",
    "ExperimentTable",
    "NORTH_SOUTH_CHAIN",
    "WEST_EAST_CHAIN",
    "fig7_sequential_chains",
    "fig8_nf_complexity",
    "fig9_cycles_sweep",
    "fig11_parallelism_degree",
    "fig12_graph_structures",
    "fig13_real_world_chains",
    "table4_rtc_comparison",
    "render_table",
    "load_sweep",
    "LoadPoint",
    "latency_breakdown",
    "LatencyBreakdown",
]
