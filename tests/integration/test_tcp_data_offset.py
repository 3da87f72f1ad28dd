"""A TCP data offset below 5 words is refused, on both planes alike.

The data offset (the high nibble of TCP byte 12) counts the header's
32-bit words, and RFC 9293 puts its least value at 5: the 20 fixed
bytes.  A frame with less -- arriving from a capture, say -- once had a
"payload" starting inside its own TCP header, at or before the
data-offset byte.  A VPN beside a monitor or an IDS encrypted that byte
on its copy, and the merge's payload copy then raised out of
``FunctionalDataplane.process`` and out of ``env.run()`` on the
``NFPServer``.  The walk now refuses such a frame with ``ValueError``,
as it refuses an IHL below 5, so the VPN's payload read fails, the
frame drops as an NF error, and both planes agree with the sequential
chain; the server's ledger balances.
"""

import pytest

from repro.core import Orchestrator, Policy
from repro.dataplane import FunctionalDataplane, NFPServer, SequentialReference
from repro.net import Packet, build_packet
from repro.nfs import create_nf
from repro.sim import DEFAULT_PARAMS, Environment
from repro.traffic import feed_list

CHAINS = (["monitor", "vpn"], ["ids", "vpn"])
#: Ethernet 14 + IPv4 20 + TCP byte 12.
DATA_OFFSET_AT = 14 + 20 + 12


def _frames(words):
    """Five 200-byte frames; the last one has data offset ``words``.

    Last, because beside the IDS the VPN sees (and spends a sequence
    number on) a frame the chain drops at the IDS, and every later
    frame's AH would show it: that is the parallel stage's NF state,
    not the walk.
    """
    frames = []
    for i in range(5):
        pkt = build_packet(src_ip=f"10.0.{i}.1", src_port=1000 + i,
                           size=200, identification=i)
        if i == 4:
            pkt.buf[DATA_OFFSET_AT] = words << 4
        frames.append(bytes(pkt.buf))
    return frames


def _expected(chain, words):
    reference = SequentialReference([create_nf(kind) for kind in chain])
    outputs = reference.process_many(
        [Packet(bytearray(buf)) for buf in _frames(words)])
    return [bytes(out.buf) for out in outputs if out is not None]


@pytest.mark.parametrize("words", range(6))
@pytest.mark.parametrize("chain", CHAINS, ids="+".join)
def test_functional_plane_agrees_with_the_chain(chain, words):
    plane = FunctionalDataplane(
        Orchestrator().compile(Policy.from_chain(chain)).graph)
    outputs = plane.process_many(
        [Packet(bytearray(buf)) for buf in _frames(words)])
    got = [bytes(out.buf) for out in outputs if out is not None]
    assert got == _expected(chain, words)
    assert len(got) == (5 if words >= 5 else 4)


@pytest.mark.parametrize("words", range(6))
@pytest.mark.parametrize("chain", CHAINS, ids="+".join)
def test_nfp_server_agrees_with_the_chain(chain, words):
    env = Environment()
    server = NFPServer(env, DEFAULT_PARAMS)
    server.keep_packets = True
    server.deploy(Orchestrator().deploy(Policy.from_chain(chain)))
    feed_list(env, server.inject,
              [Packet(bytearray(buf)) for buf in _frames(words)], 5.0)
    env.run()
    got = sorted(server.emitted_packets, key=lambda pkt: pkt.meta.pid)
    assert [bytes(pkt.buf) for pkt in got] == _expected(chain, words)
    report = server.conservation_report()
    assert report["injected"] == 5
    assert report["unaccounted"] == 0
