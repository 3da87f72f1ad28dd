#!/usr/bin/env python3
"""Quickstart: compile a policy, inspect the graph, process packets.

Walks the full NFP pipeline on the paper's running example (Fig. 1):
the data-center north-south chain VPN -> Monitor -> Firewall -> Load
Balancer.

Run:  python examples/quickstart.py
"""

from repro import Orchestrator, Policy
from repro.core import CompiledGraph, table_view
from repro.dataplane import FunctionalDataplane, SequentialReference
from repro.net import build_packet
from repro.nfs import create_nf


def main() -> None:
    orch = Orchestrator()

    # 1. Describe the chaining intent.  A traditional sequential chain
    #    specification is automatically converted to Order rules (§3).
    policy = Policy.from_chain(
        ["vpn", "monitor", "firewall", "loadbalancer"], name="north-south"
    )

    # 2. Compile: the orchestrator identifies NF dependencies
    #    (Algorithm 1) and builds the parallel service graph (§4).
    result = orch.compile(policy)
    graph = result.graph
    print("compiled graph :", graph.describe())
    print("equivalent len :", graph.equivalent_length, "(sequential would be 4)")
    print("packet copies  :", graph.num_versions - 1, "-> zero resource overhead")
    for pair, verdict in sorted(result.decisions.items()):
        print(f"  {pair[0]:>12s} before {pair[1]:<13s} -> {verdict.classification.value}")

    # 3. Deploy: allocate a MID and generate the CT/FT/MO tables (§5).
    deployed = orch.deploy(policy)
    ct_row, forwarding = table_view(CompiledGraph(graph),
                                    deployed.tables.ct_entry)
    print("\nclassifier CT  :", ct_row)
    for nf, actions in forwarding.items():
        print(f"  FT[{nf}]: {actions}")

    # 4. Process real packets through the parallel graph and verify the
    #    result correctness principle (§4.1) against sequential execution.
    parallel = FunctionalDataplane(graph)
    sequential = SequentialReference(
        [create_nf(k, name=f"ref-{k}") for k in
         ("vpn", "monitor", "firewall", "loadbalancer")]
    )
    agree = 0
    for i in range(100):
        a = build_packet(src_ip=f"10.0.0.{i % 20 + 1}", src_port=1000 + i,
                         size=256, payload=b"payload-%03d" % i,
                         identification=i)
        b = build_packet(src_ip=f"10.0.0.{i % 20 + 1}", src_port=1000 + i,
                         size=256, payload=b"payload-%03d" % i,
                         identification=i)
        out_par = parallel.process(a)
        out_seq = sequential.process(b)
        same_drop = (out_par is None) and (out_seq is None)
        same_bytes = (
            out_par is not None
            and out_seq is not None
            and bytes(out_par.buf) == bytes(out_seq.buf)
        )
        agree += same_drop or same_bytes
    print(f"\ncorrectness    : {agree}/100 packets identical to sequential execution")

    # 5. Peek at NF state accumulated along the way.
    monitor = parallel.nfs["monitor"]
    print("monitor flows  :", monitor.flow_count())


if __name__ == "__main__":
    main()
