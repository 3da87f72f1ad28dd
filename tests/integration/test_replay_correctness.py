"""Integration: the §6.4 result-correctness replay across many chains.

For every chain, the compiled parallel service graph must produce
byte-identical outputs (and agreeing drops) to sequential execution of
the original chain.
"""

import pytest

from repro.eval import replay_chain
from repro.traffic import DATACENTER_MIX, FIXED_64B, PacketSizeDistribution

CHAINS = [
    # The paper's real-world chains (Fig. 13).
    ("vpn", "monitor", "firewall", "loadbalancer"),
    ("ids", "monitor", "loadbalancer"),
    # The Fig. 1 motivating pair.
    ("firewall", "monitor"),
    # Copy-based parallelism.
    ("monitor", "loadbalancer"),
    ("gateway", "monitor", "loadbalancer"),
    # Structural NFs.
    ("vpn", "vpn-decrypt"),
    ("monitor", "vpn", "vpn-decrypt", "monitor2"),
    # Writers feeding later stages (version-1 claimants).
    ("monitor", "nat", "vpn"),
    ("caching", "nat", "monitor"),
    ("monitor", "nat", "firewall", "loadbalancer"),
    # Read-only fan-out.
    ("gateway", "caching", "monitor", "nids"),
    # Sequentialised write chains.
    ("nat", "loadbalancer"),
    ("nat", "proxy", "vpn"),
    ("compression", "compression2"),
    # Droppers in various positions.
    ("ips", "monitor"),
    ("firewall", "ids", "monitor"),
    ("monitor", "firewall"),
    # Longer mixed chain.
    ("gateway", "monitor", "firewall", "loadbalancer"),
    ("shaper", "monitor", "firewall"),
]


def _specs(chain):
    """Allow duplicate kinds via trailing digits (monitor2 -> monitor)."""
    from repro.core import NFSpec

    specs = []
    for name in chain:
        kind = name.rstrip("0123456789")
        specs.append(NFSpec(name, kind))
    return specs


@pytest.mark.parametrize("chain", CHAINS, ids=lambda c: "-".join(c))
def test_parallel_equals_sequential(chain):
    from repro.core import Orchestrator, Policy
    from repro.dataplane import FunctionalDataplane, SequentialReference
    from repro.eval.correctness import _tagged_flow_generator
    from repro.nfs import create_nf

    specs = _specs(chain)
    policy = Policy.from_chain(specs, name="replay")
    graph = Orchestrator().compile(policy).graph

    parallel = FunctionalDataplane(graph)
    sequential = SequentialReference(
        [create_nf(s.kind, name=f"seq-{s.name}") for s in specs]
    )
    gen_a = _tagged_flow_generator(FIXED_64B, seed=11)
    gen_b = _tagged_flow_generator(FIXED_64B, seed=11)

    for _ in range(120):
        pkt_a, pkt_b = gen_a.next_packet(), gen_b.next_packet()
        out_a = parallel.process(pkt_a)
        out_b = sequential.process(pkt_b)
        assert (out_a is None) == (out_b is None)
        if out_a is not None:
            assert bytes(out_a.buf) == bytes(out_b.buf)


#: §6.4's replay at benchmark scale: 200 packets of the data-center mix.
DATACENTER_REPLAYS = [
    ("vpn", "monitor", "firewall", "loadbalancer"),
    ("ids", "monitor", "loadbalancer"),
    ("firewall", "monitor"),
    ("monitor", "nat", "vpn"),
    ("gateway", "caching", "monitor", "nids"),
    ("ips", "monitor"),
]


def test_replay_helper_reports_ok():
    cases = [(("vpn", "monitor", "firewall", "loadbalancer"), 100, FIXED_64B)]
    cases += [(chain, 200, DATACENTER_MIX) for chain in DATACENTER_REPLAYS]
    for chain, packets, sizes in cases:
        report = replay_chain(chain, packets=packets, sizes=sizes)
        assert report.ok, report
        assert report.matches + report.drop_agreements == packets


def test_replay_with_datacenter_sizes():
    sizes = PacketSizeDistribution([(128, 0.5), (1024, 0.5)])
    report = replay_chain(("ids", "monitor", "loadbalancer"),
                          packets=100, sizes=sizes)
    assert report.ok


def test_replay_detects_drop_agreement():
    # An IPS chain drops signature traffic identically in both worlds.
    report = replay_chain(("ips", "monitor"), packets=150)
    assert report.ok
    assert report.drops_parallel == report.drops_sequential
    assert report.matches + report.drop_agreements == report.packets


def test_drop_agreement_is_per_index_not_per_count():
    # Equal drop *counts* on different packets must not read as
    # agreement: agreement is the per-index intersection.
    from repro.eval import ReplayReport

    report = ReplayReport(
        chain=("a", "b"), graph="a -> b", packets=4, matches=0,
        drops_parallel=[0, 1], drops_sequential=[2, 3],
        mismatches=[0, 1, 2, 3],
    )
    assert report.drop_agreements == 0
    assert not report.ok

    agreeing = ReplayReport(
        chain=("a",), graph="a", packets=3, matches=1,
        drops_parallel=[0, 2], drops_sequential=[0, 2],
    )
    assert agreeing.drop_agreements == 2
    assert agreeing.ok
    assert agreeing.matches + agreeing.drop_agreements == agreeing.packets
