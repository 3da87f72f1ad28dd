#!/usr/bin/env python3
"""Cross-server NF parallelism (§7 'NFP Scalability').

A six-NF policy cannot fit a small server (3 cores for NFs after the
classifier+merger overhead), so the compiled graph is partitioned over
multiple servers at stage boundaries and run on the timed pipeline:
one simulated NFP server per slice, chained by links.  Copy versions
merge before leaving each server, and the inter-server links carry
exactly one NSH-tagged frame per packet -- the paper's bandwidth
constraint.

Run:  python examples/cross_server.py
"""

from repro import Orchestrator, Policy
from repro.core.partition import partition_graph
from repro.dataplane import SequentialReference
from repro.multiserver import TimedMultiServer
from repro.net import build_packet
from repro.nfs import create_nf
from repro.sim import DEFAULT_PARAMS, Environment

CHAIN = ["gateway", "monitor", "nat", "firewall", "loadbalancer", "vpn"]
TOTAL = 300


def packet(i: int):
    return build_packet(
        src_ip=f"192.0.2.{i % 100 + 1}", src_port=5000 + i,
        size=256, identification=i, payload=b"req-%04d" % i,
    )


def main() -> None:
    orch = Orchestrator()
    graph = orch.compile(Policy.from_chain(CHAIN, name="six-nf")).graph
    print("compiled graph :", graph.describe())

    env = Environment()
    multi = TimedMultiServer(env, DEFAULT_PARAMS, graph,
                             partition_graph(graph, cores_per_server=5))
    multi.tail.keep_packets = True
    print(f"partitioned over {multi.num_servers} servers "
          f"(3 NF cores each + classifier + merger):")
    for server_slice in multi.slices:
        print(f"  server {server_slice.server_index}: "
              f"{server_slice.nf_names()}  "
              f"({server_slice.total_cores} cores)")

    # One packet every microsecond into the first server.
    for i in range(TOTAL):
        env.call_at(float(i), multi.inject, packet(i))
    env.run()

    # The same packets through the chain run in order on one box,
    # matched to the pipeline's outputs by IPv4 identification.
    reference = SequentialReference(
        [create_nf(k, name=f"ref-{k}") for k in CHAIN]
    )
    outputs = {pkt.ipv4.identification: bytes(pkt.buf)
               for pkt in multi.tail.emitted_packets}
    agree = 0
    for i in range(TOTAL):
        want = reference.process(packet(i))
        got = outputs.get(i)
        agree += (got is None if want is None else got == bytes(want.buf))

    print(f"\ncorrectness    : {agree}/{TOTAL} outputs identical to "
          "single-box sequential execution")
    print(f"latency        : {multi.tail.latency.mean:.1f} us mean, "
          "end to end across the link")
    for index, link in enumerate(multi.links):
        print(f"link {index}->{index + 1}   : {link.frames} frames "
              f"({link.frames / TOTAL:.1f} per packet), "
              f"{link.bytes / link.frames:.0f} B avg "
              f"(incl. 16 B NSH shim)")
    print("bandwidth rule : one packet copy per link ✓"
          if all(link.frames == TOTAL for link in multi.links)
          else "VIOLATED")


if __name__ == "__main__":
    main()
