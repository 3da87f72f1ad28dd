"""Edge cases across modules that the main suites do not reach."""

import io
import struct

import pytest

from repro.core import Orchestrator, Policy
from repro.core.tables import FTAction, FTActionKind
from repro.net import build_packet, read_pcap
from repro.sim import Environment, SimulationError


# ------------------------------------------------------------------ engine
def test_step_on_empty_queue():
    with pytest.raises(SimulationError):
        Environment().step()


# -------------------------------------------------------------------- pcap
def test_pcap_nanosecond_magic():
    buf = io.BytesIO()
    buf.write(struct.pack("<IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 1))
    buf.write(struct.pack("<IIII", 2, 250_000_000, 4, 4))  # 0.25 s in ns
    buf.write(b"\x01\x02\x03\x04")
    buf.seek(0)
    records = read_pcap(buf)
    assert records[0][0] == pytest.approx(2_250_000.0)  # us


# -------------------------------------------------------------- FT actions
def test_ignore_action_repr():
    assert repr(FTAction(FTActionKind.IGNORE)) == "ignore"
    output = FTAction(FTActionKind.OUTPUT, version=1)
    assert repr(output) == "output(v1)"
    assert output == FTAction(FTActionKind.OUTPUT, version=1)
    assert hash(output) == hash(FTAction(FTActionKind.OUTPUT, version=1))


# ------------------------------------------------------------ orchestrator
def test_mid_allocation_skips_and_reuses_cleanly():
    orch = Orchestrator()
    first = orch.deploy(Policy.from_chain(["firewall"], name="a"))
    second = orch.deploy(Policy.from_chain(["monitor"], name="b"))
    orch.undeploy(first.mid)
    third = orch.deploy(Policy.from_chain(["gateway"], name="c"))
    assert third.mid not in (second.mid,)
    assert orch.get(third.mid) is third


def test_deploy_with_exact_match_key():
    orch = Orchestrator()
    key = ("10.0.0.1", "10.0.0.2", 6, 1, 2)
    deployed = orch.deploy(Policy.from_chain(["firewall"]), match=key)
    assert deployed.tables.ct_entry.match == key


# -------------------------------------------------------------- packet API
def test_payload_of_payloadless_packet_is_empty():
    pkt = build_packet(size=64)
    assert pkt.payload == bytes(64 - 54)
    small = build_packet(size=54)
    assert small.payload == b""


def test_stamp_noop_without_timeline():
    pkt = build_packet(size=64)
    pkt.stamp("anything", 1.0)  # must not raise
    assert pkt.timeline is None
    pkt.timeline = []
    pkt.stamp("x", 2.0)
    assert pkt.timeline == [("x", 2.0)]
