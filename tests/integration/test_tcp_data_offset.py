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

Mid-stream, the refused frame must also leave every later frame alone:
beside the IDS the VPN sees it too, and its payload read refuses it
before it spends an AH sequence number, so the frames after it encrypt
under the sequential chain's numbers, a packet at a time or in a burst.
"""

import pytest

from repro.core import Orchestrator, Policy
from repro.dataplane import FunctionalDataplane, NFPServer, SequentialReference
from repro.net import Packet, build_packet
from repro.nfs import create_nf
from repro.sim import DEFAULT_PARAMS, Environment, SimParams
from repro.traffic import feed_list

CHAINS = (["monitor", "vpn"], ["ids", "vpn"])
#: Ethernet 14 + IPv4 20 + TCP byte 12.
DATA_OFFSET_AT = 14 + 20 + 12


def _frames(words, at=4):
    """Five 200-byte frames; frame ``at`` (by default the last) has data
    offset ``words``."""
    frames = []
    for i in range(5):
        pkt = build_packet(src_ip=f"10.0.{i}.1", src_port=1000 + i,
                           size=200, identification=i)
        if i == at:
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


#: The refused frame's position when it is not the last.
MID_STREAM = 2


def _sequential(chain, frames):
    nfs = [create_nf(kind) for kind in chain]
    outputs = SequentialReference(nfs).process_many(
        [Packet(bytearray(buf)) for buf in frames])
    return [bytes(out.buf) for out in outputs if out is not None], nfs[-1].seq


@pytest.mark.parametrize("burst", [1, 7])
@pytest.mark.parametrize("chain", CHAINS, ids="+".join)
def test_mid_stream_refusal_spends_no_sequence_number_functional(chain, burst):
    frames = _frames(0, at=MID_STREAM)
    plane = FunctionalDataplane(
        Orchestrator().compile(Policy.from_chain(chain)).graph)
    packets = [Packet(bytearray(buf)) for buf in frames]
    outputs = []
    for start in range(0, len(packets), burst):
        outputs += plane.process_many(packets[start:start + burst])
    got = [bytes(out.buf) for out in outputs if out is not None]
    assert (got, plane.nfs["vpn"].seq) == _sequential(chain, frames)
    assert len(got) == 4


@pytest.mark.parametrize("burst", [1, 7])
@pytest.mark.parametrize("chain", CHAINS, ids="+".join)
def test_mid_stream_refusal_spends_no_sequence_number_des(chain, burst):
    frames = _frames(0, at=MID_STREAM)
    env = Environment()
    server = NFPServer(env, SimParams(batch_size=burst))
    server.keep_packets = True
    server.deploy(Orchestrator().deploy(Policy.from_chain(chain)))
    # All five land at once: the VPN's ring holds them for one burst.
    feed_list(env, server.inject,
              [Packet(bytearray(buf)) for buf in frames], 0.0)
    env.run()
    got = sorted(server.emitted_packets, key=lambda pkt: pkt.meta.pid)
    (vpn,) = server.runtimes["vpn"].instances
    assert ([bytes(pkt.buf) for pkt in got], vpn.nf.seq) == _sequential(
        chain, frames)
    assert server.conservation_report()["unaccounted"] == 0
