"""Property tests for §7 scale-out: RSS flow-split order and stability.

The scale-out guarantee is per-flow: replicating NFs and RSS-splitting
flows must (a) keep every flow's packets in their injection order at the
output, exactly as a single-instance deployment would, and (b) pin each
flow to one instance of every replicated NF for the whole run.  These
hold for *any* seed, flow mix, and instance count, so they are checked
as properties rather than examples.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Orchestrator, Policy
from repro.dataplane import NFPServer, key_digest, packet_key, pick_instance
from repro.net.packet import build_packet
from repro.nfs.base import create_nf
from repro.sim import DEFAULT_PARAMS, Environment
from repro.traffic import feed_list

#: Chains whose NFs never rewrite the 5-tuple, so the classifier-time
#: flow key is recoverable from any packet seen mid-chain.
CHAINS = [
    ["firewall", "monitor"],
    ["ids", "monitor"],
    ["ids", "monitor", "firewall"],
]

#: Far below any chain's capacity: arrival order == injection order.
GAP_US = 25.0


def _interleaved_packets(num_flows, per_flow, seed):
    """Multi-flow traffic, flows riffled together but in-order per flow.

    Returns (packets, ident -> flow index).  The IPv4 identification is
    the global injection index, so output order is directly comparable
    across runs.
    """
    lineup = [f for f in range(num_flows) for _ in range(per_flow)]
    random.Random(seed).shuffle(lineup)
    packets, flow_of = [], {}
    for ident, flow in enumerate(lineup):
        packets.append(build_packet(
            src_ip=f"10.1.{flow}.1", dst_ip="10.2.0.2",
            src_port=20000 + flow, dst_port=443,
            identification=ident,
        ))
        flow_of[ident] = flow
    return packets, flow_of


def _run_chain(chain, packets, instances, nf_log=None):
    """Drive the DES server; returns emitted idents in emission order."""

    def factory(kind, name):
        nf = create_nf(kind, name=name)
        if nf_log is not None:
            original = nf.handle

            def handle(pkt, _orig=original, _name=name):
                nf_log.setdefault(_name, []).append(pkt.ipv4.identification)
                return _orig(pkt)

            nf.handle = handle
        return nf

    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS, nf_factory=factory)
    server.keep_packets = True
    server.deploy(Orchestrator().deploy(Policy.from_chain(chain)),
                  scale={name: instances for name in chain})

    feed_list(env, server.inject, packets, GAP_US)
    env.run()
    assert server.lost == 0
    return [pkt.ipv4.identification for pkt in server.emitted_packets]


@settings(max_examples=12, deadline=None)
@given(
    chain_index=st.integers(0, len(CHAINS) - 1),
    instances=st.integers(2, 4),
    num_flows=st.integers(2, 8),
    per_flow=st.integers(4, 12),
    seed=st.integers(0, 1000),
)
def test_per_flow_order_matches_single_instance(
    chain_index, instances, num_flows, per_flow, seed
):
    """Each flow's output sequence under RSS split == unscaled sequence."""
    chain = CHAINS[chain_index]
    packets, flow_of = _interleaved_packets(num_flows, per_flow, seed)
    single = _run_chain(chain, packets, instances=1)
    packets2, _ = _interleaved_packets(num_flows, per_flow, seed)
    scaled = _run_chain(chain, packets2, instances=instances)

    assert sorted(single) == sorted(scaled)  # same survivor set
    for flow in range(num_flows):
        want = [i for i in single if flow_of[i] == flow]
        got = [i for i in scaled if flow_of[i] == flow]
        assert got == want
        assert got == sorted(got)  # injection order preserved per flow


@settings(max_examples=12, deadline=None)
@given(
    chain_index=st.integers(0, len(CHAINS) - 1),
    instances=st.integers(2, 4),
    num_flows=st.integers(2, 8),
    seed=st.integers(0, 1000),
)
def test_flow_to_instance_assignment_is_stable(
    chain_index, instances, num_flows, seed
):
    """A flow lands on exactly one instance per NF, the RSS-chosen one."""
    chain = CHAINS[chain_index]
    packets, flow_of = _interleaved_packets(num_flows, 8, seed)
    keys = {}
    for pkt in packets:
        keys[pkt.ipv4.identification] = packet_key(pkt)

    nf_log = {}
    _run_chain(chain, packets, instances=instances, nf_log=nf_log)

    seen = {}  # (nf name, flow) -> instance label
    for label, idents in nf_log.items():
        name, _, index = label.partition("#")
        assert index != "", f"unscaled runtime {label!r} in a scaled deploy"
        for ident in idents:
            flow = flow_of[ident]
            previous = seen.setdefault((name, flow), label)
            assert previous == label, (
                f"flow {flow} visited both {previous} and {label}")
            assert int(index) == pick_instance(key_digest(keys[ident]),
                                               instances)
