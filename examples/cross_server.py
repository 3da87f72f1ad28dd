#!/usr/bin/env python3
"""Cross-server NF parallelism (§7 'NFP Scalability').

A six-NF policy cannot fit a small server (4 cores for NFs after the
classifier+merger overhead), so the compiled graph is partitioned over
multiple servers at stage boundaries.  Copy versions merge before
leaving each server, and the inter-server links carry exactly one
NSH-tagged frame per packet -- the paper's bandwidth constraint.

Run:  python examples/cross_server.py
"""

from repro import Orchestrator, Policy
from repro.dataplane import SequentialReference
from repro.multiserver import MultiServerDataplane
from repro.net import build_packet
from repro.nfs import create_nf

CHAIN = ["gateway", "monitor", "nat", "firewall", "loadbalancer", "vpn"]


def main() -> None:
    orch = Orchestrator()
    graph = orch.compile(Policy.from_chain(CHAIN, name="six-nf")).graph
    print("compiled graph :", graph.describe())

    multi = MultiServerDataplane(graph, cores_per_server=5)
    print(f"partitioned over {multi.num_servers} servers "
          f"(3 NF cores each + classifier + merger):")
    for server_slice in multi.slices:
        print(f"  server {server_slice.server_index}: "
              f"{server_slice.nf_names()}  "
              f"({server_slice.total_cores} cores)")

    reference = SequentialReference(
        [create_nf(k, name=f"ref-{k}") for k in CHAIN]
    )
    agree = 0
    total = 300
    for i in range(total):
        mk = lambda: build_packet(
            src_ip=f"192.0.2.{i % 100 + 1}", src_port=5000 + i,
            size=256, identification=i, payload=b"req-%04d" % i,
        )
        out_multi = multi.process(mk())
        out_single = reference.process(mk())
        same_drop = out_multi is None and out_single is None
        same_bytes = (
            out_multi is not None and out_single is not None
            and bytes(out_multi.buf) == bytes(out_single.buf)
        )
        agree += same_drop or same_bytes

    print(f"\ncorrectness    : {agree}/{total} outputs identical to "
          "single-box sequential execution")
    for index, link in enumerate(multi.links):
        print(f"link {index}->{index + 1}   : {link.frames} frames "
              f"({link.frames / total:.1f} per packet), "
              f"{link.bytes / link.frames:.0f} B avg "
              f"(incl. 16 B NSH shim)")
    print("bandwidth rule : one packet copy per link ✓"
          if all(l.frames == total for l in multi.links) else "VIOLATED")


if __name__ == "__main__":
    main()
