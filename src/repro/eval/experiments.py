"""One function per table/figure of the paper's evaluation (§6, §7).

Each ``fig*``/``table*`` function runs the corresponding experiment on
the simulated testbed and returns an :class:`ExperimentTable` -- the
headers and rows the paper's figure plots -- ready for printing or
assertion.  Benchmarks call these with reduced packet counts; the
``examples/reproduce_paper.py`` script runs them all.

Paper-vs-measured notes live in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..core.orchestrator import Orchestrator
from ..core.policy import Policy
from ..sim import DEFAULT_PARAMS
from ..traffic.generator import DATACENTER_MIX
from .forced import forced_parallel, forced_sequential, forced_structure
from .harness import measure_bess, measure_nfp, measure_onvm
from .model import nfp_capacity, onvm_capacity
from .report import render_table

__all__ = [
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
]

#: Fig. 13's real-world data-center chains [32, 36].
NORTH_SOUTH_CHAIN = ("vpn", "monitor", "firewall", "loadbalancer")
WEST_EAST_CHAIN = ("ids", "monitor", "loadbalancer")

#: The six §6.1 prototype NFs, in Fig. 8's order.
PROTOTYPE_NFS = ("forwarder", "loadbalancer", "firewall", "monitor", "vpn", "ids")

#: Fig. 7(b)'s packet sizes, in bytes.
FIG7_SIZES = (64, 128, 256, 512, 1024, 1500)

#: The firewall busy loop of Figs. 11 and 12, in cycles.
BUSY_CYCLES = 300


@dataclass
class ExperimentTable:
    """A reproduced table/figure: id, axis labels, and data rows."""

    experiment: str
    headers: List[str]
    rows: List[List] = field(default_factory=list)
    notes: str = ""

    def render(self) -> str:
        title = f"== {self.experiment} =="
        body = render_table(self.headers, self.rows)
        return f"{title}\n{body}" + (f"\n({self.notes})" if self.notes else "")

    def column(self, name: str) -> List:
        index = self.headers.index(name)
        return [row[index] for row in self.rows]


# ---------------------------------------------------------------- Fig. 7
def fig7_sequential_chains(packets: int = 3000) -> ExperimentTable:
    """Fig. 7: L3-forwarder chains of length 1-5, NFP vs OpenNetVM.

    (a) latency at 64 B; (b) processing rate vs packet size -- NFP
    reaches line rate for all sizes, OpenNetVM caps at its manager.
    """
    table = ExperimentTable(
        "Figure 7: sequential forwarder chains",
        ["chain_len", "onvm_lat_us", "nfp_lat_us",
         "pkt_size", "onvm_mpps", "nfp_mpps", "line_rate_mpps"],
        notes="NFP sequential chains bypass copy/merge entirely (§6.2.1)",
    )
    params = DEFAULT_PARAMS
    for length in range(1, 6):
        chain = ["forwarder"] * length
        onvm = measure_onvm(chain, packets=packets, load_fraction=0.3)
        nfp = measure_nfp(
            forced_sequential(chain), packets=packets, load_fraction=0.3
        )
        for size in FIG7_SIZES:
            onvm_rate = min(
                onvm_capacity(chain, params, packet_size=size).mpps,
                params.line_rate_mpps(size),
            )
            graph = forced_sequential(chain)
            nfp_rate = min(
                nfp_capacity(graph, params, packet_size=size).mpps,
                params.line_rate_mpps(size),
            )
            table.rows.append(
                [length, onvm.latency_mean_us, nfp.latency_mean_us,
                 size, onvm_rate, nfp_rate, params.line_rate_mpps(size)]
            )
    return table


# ---------------------------------------------------------------- Fig. 8
def fig8_nf_complexity(packets: int = 3000) -> ExperimentTable:
    """Fig. 8: two instances of each prototype NF -- sequential vs
    parallel (no copy / with copy), the Fig. 10 forced setups."""
    table = ExperimentTable(
        "Figure 8: NF complexity (2 instances of each NF)",
        ["nf", "onvm_seq_lat", "nfp_seq_lat", "par_nocopy_lat", "par_copy_lat",
         "onvm_seq_mpps", "nfp_seq_mpps", "par_nocopy_mpps", "par_copy_mpps"],
        notes="latency benefit grows with NF complexity (§6.2.2)",
    )
    for kind in PROTOTYPE_NFS:
        pair = [kind, kind]
        onvm = measure_onvm(pair, packets=packets)
        seq = measure_nfp(forced_sequential(pair), packets=packets)
        par = measure_nfp(forced_parallel(pair, with_copy=False), packets=packets)
        parc = measure_nfp(forced_parallel(pair, with_copy=True), packets=packets)
        table.rows.append(
            [kind, onvm.latency_mean_us, seq.latency_mean_us,
             par.latency_mean_us, parc.latency_mean_us,
             onvm.throughput_mpps, seq.throughput_mpps,
             par.throughput_mpps, parc.throughput_mpps]
        )
    return table


# ---------------------------------------------------------------- Fig. 9
def fig9_cycles_sweep(
    packets: int = 3000,
    cycles: Sequence[int] = (1, 300, 600, 900, 1200, 1500, 1800, 2100, 2400, 2700, 3000),
) -> ExperimentTable:
    """Fig. 9: firewall with a busy loop of 1..3000 cycles, degree 2."""
    table = ExperimentTable(
        "Figure 9: firewall complexity sweep (busy-loop cycles, 2 NFs)",
        ["cycles", "onvm_seq_lat", "nfp_seq_lat", "par_nocopy_lat",
         "par_copy_lat", "nocopy_reduction_pct", "nfp_seq_mpps", "par_mpps"],
        notes="~45% latency cut at 3000 cycles in the paper",
    )
    pair = ["firewall", "firewall"]
    for cyc in cycles:
        onvm = measure_onvm(pair, packets=packets, extra_cycles=cyc)
        seq = measure_nfp(
            forced_sequential(pair), packets=packets, extra_cycles=cyc
        )
        par = measure_nfp(
            forced_parallel(pair, with_copy=False),
            packets=packets, extra_cycles=cyc,
        )
        parc = measure_nfp(
            forced_parallel(pair, with_copy=True),
            packets=packets, extra_cycles=cyc,
        )
        reduction = (1 - par.latency_mean_us / seq.latency_mean_us) * 100
        table.rows.append(
            [cyc, onvm.latency_mean_us, seq.latency_mean_us,
             par.latency_mean_us, parc.latency_mean_us, reduction,
             seq.throughput_mpps, par.throughput_mpps]
        )
    return table


# --------------------------------------------------------------- Fig. 11
def fig11_parallelism_degree(packets: int = 3000) -> ExperimentTable:
    """Fig. 11: 2-5 firewall instances (300 cycles), seq vs parallel."""
    table = ExperimentTable(
        "Figure 11: parallelism degree (firewall, 300 cycles)",
        ["degree", "onvm_seq_lat", "nfp_seq_lat", "par_nocopy_lat",
         "par_copy_lat", "nocopy_reduction_pct", "copy_reduction_pct",
         "par_nocopy_mpps", "par_copy_mpps"],
        notes="paper: no-copy 33%->52%, copy up to 32%",
    )
    for degree in (2, 3, 4, 5):
        chain = ["firewall"] * degree
        onvm = measure_onvm(chain, packets=packets, extra_cycles=BUSY_CYCLES)
        seq = measure_nfp(
            forced_sequential(chain), packets=packets,
            extra_cycles=BUSY_CYCLES,
        )
        par = measure_nfp(
            forced_parallel(chain, with_copy=False),
            packets=packets, extra_cycles=BUSY_CYCLES,
        )
        parc = measure_nfp(
            forced_parallel(chain, with_copy=True),
            packets=packets, extra_cycles=BUSY_CYCLES,
        )
        table.rows.append(
            [degree, onvm.latency_mean_us, seq.latency_mean_us,
             par.latency_mean_us, parc.latency_mean_us,
             (1 - par.latency_mean_us / seq.latency_mean_us) * 100,
             (1 - parc.latency_mean_us / seq.latency_mean_us) * 100,
             par.throughput_mpps, parc.throughput_mpps]
        )
    return table


# --------------------------------------------------------------- Fig. 12
#: Fig. 14's six candidate structures for 4 NFs, as stage widths.
FIG14_STRUCTURES = {
    "(1) sequential": (1, 1, 1, 1),
    "(2) all-parallel": (4,),
    "(3) 1->3": (1, 3),
    "(4) 1->2->1": (1, 2, 1),
    "(5) 1->1->2": (1, 1, 2),
    "(6) 2->2": (2, 2),
}


def fig12_graph_structures(packets: int = 3000) -> ExperimentTable:
    """Fig. 12: the possible 4-NF graph shapes of Fig. 14.

    Shorter equivalent chain length -> bigger latency benefit.
    """
    table = ExperimentTable(
        "Figure 12: graph structures with 4 NFs",
        ["structure", "equivalent_length", "nocopy_lat", "copy_lat",
         "nocopy_mpps", "copy_mpps"],
        notes="latency tracks equivalent chain length (§6.2.4)",
    )
    for label, widths in FIG14_STRUCTURES.items():
        chain = ["firewall"] * 4
        nocopy = measure_nfp(
            forced_structure(chain, widths, with_copy=False),
            packets=packets, extra_cycles=BUSY_CYCLES,
        )
        copy = measure_nfp(
            forced_structure(chain, widths, with_copy=True),
            packets=packets, extra_cycles=BUSY_CYCLES,
        )
        table.rows.append(
            [label, len(widths), nocopy.latency_mean_us, copy.latency_mean_us,
             nocopy.throughput_mpps, copy.throughput_mpps]
        )
    return table


# --------------------------------------------------------------- Fig. 13
def fig13_real_world_chains(packets: int = 3000) -> ExperimentTable:
    """Fig. 13: the north-south and west-east data-center chains.

    Policies are Order rules over adjacent NFs, exactly as the paper
    assumes; the compiler finds the parallelisation on its own.
    """
    table = ExperimentTable(
        "Figure 13: real-world service chains (data-center size mix)",
        ["chain", "graph", "onvm_lat", "nfp_lat", "reduction_pct",
         "resource_overhead_pct", "paper_reduction_pct", "paper_overhead_pct"],
    )
    orch = Orchestrator()
    paper = {"north-south": (12.9, 0.0), "west-east": (35.9, 8.8)}
    for name, chain in (
        ("north-south", NORTH_SOUTH_CHAIN),
        ("west-east", WEST_EAST_CHAIN),
    ):
        onvm = measure_onvm(list(chain), packets=packets, sizes=DATACENTER_MIX)
        graph = orch.compile(Policy.from_chain(list(chain), name=name)).graph
        nfp = measure_nfp(graph, packets=packets, sizes=DATACENTER_MIX)
        reduction = (1 - nfp.latency_mean_us / onvm.latency_mean_us) * 100
        table.rows.append(
            [name, graph.describe(), onvm.latency_mean_us, nfp.latency_mean_us,
             reduction, nfp.resource_overhead * 100,
             paper[name][0], paper[name][1]]
        )
    return table


# --------------------------------------------------------------- Table 4
def table4_rtc_comparison(packets: int = 3000) -> ExperimentTable:
    """Table 4: OpenNetVM vs NFP vs BESS, firewall chains, n+2 cores.

    NFP runs all NFs in parallel (the paper's highest-performance
    configuration); BESS duplicates the chain over the same n+2 cores.
    """
    table = ExperimentTable(
        "Table 4: pipelining vs RTC (firewall chains, n+2 cores)",
        ["chain_len", "cores",
         "onvm_lat", "nfp_lat", "bess_lat",
         "onvm_mpps", "nfp_mpps", "bess_mpps"],
    )
    for length in (1, 2, 3):
        chain = ["firewall"] * length
        onvm = measure_onvm(chain, packets=packets, load_fraction=0.9)
        nfp = measure_nfp(
            forced_parallel(chain, with_copy=False),
            packets=packets, load_fraction=0.9,
        )
        bess = measure_bess(
            chain, num_cores=length + 2, packets=packets, load_fraction=0.9,
        )
        table.rows.append(
            [length, length + 2,
             onvm.latency_mean_us, nfp.latency_mean_us, bess.latency_mean_us,
             onvm.throughput_mpps, nfp.throughput_mpps, bess.throughput_mpps]
        )
    return table
