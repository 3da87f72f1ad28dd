"""The firewall's first-match index against the linear ACL scan.

``Firewall`` compiles its ACL once into buckets by source mask, then by
source network, and keeps the lowest matching rule index.  The oracle
here is the scan it replaced: every rule's ``AclRule.matches`` in ACL
order, first match wins, default permit.  On seeded random ACLs --
prefix lengths 0 to 32 on both addresses, rules that share a source
network, permits ahead of overlapping denies, and ports on and just
past every range edge -- both must give the same verdict, the same
counters and the same recorder events for every packet.
"""

import random

import pytest

from repro.net import AccessRecorder, build_packet
from repro.net.headers import int_to_ip
from repro.net.packet import FLOW_KEY, Packet
from repro.nfs.firewall import AclRule, Firewall, build_acl

#: Few base networks, so random prefixes overlap and buckets collide.
BASES = [0x0A000000, 0x0A010000, 0xC0A80100, 0xC0A80000]


class LinearFirewall(Firewall):
    """The scan the index replaced: one ``matches`` per rule."""

    def process(self, pkt, ctx):
        sip, dip, _, sport, dport = FLOW_KEY.unpack(pkt.port_key())
        for rule in self.acl:
            if rule.matches(sip, dip, sport, dport):
                if rule.permit:
                    break
                self.denied += 1
                ctx.drop("acl deny")
                return
        self.permitted += 1


def _address(rng):
    return rng.choice(BASES) | rng.randrange(0, 1 << rng.choice([0, 4, 8, 16]))


def _ports(rng):
    low = rng.choice([0, 1, 80, 1023, 1024, rng.randrange(65536)])
    high = rng.choice([low, low + 1, 65535, min(65535, low + rng.randrange(5000))])
    return low, max(low, high)


def _rule(rng):
    return AclRule(
        src_prefix=(int_to_ip(_address(rng)), rng.randint(0, 32)),
        dst_prefix=(int_to_ip(_address(rng)), rng.randint(0, 32)),
        sport_range=_ports(rng),
        dport_range=_ports(rng),
        permit=rng.random() < 0.4,
    )


def _acl(rng):
    acl = [_rule(rng) for _ in range(rng.randint(1, 60))]
    # A permit ahead of an overlapping deny: the same source network,
    # the deny wider on every axis.
    permit = rng.choice(acl)
    at = rng.randrange(len(acl) + 1)
    acl.insert(at, AclRule(
        src_prefix=(int_to_ip(permit.src_net), bin(permit.src_mask).count("1")),
        sport_range=permit.sport_range, dport_range=permit.dport_range,
        permit=True))
    acl.insert(rng.randint(at + 1, len(acl)), AclRule(
        src_prefix=(int_to_ip(permit.src_net), 0), permit=False))
    return acl


def _packets(rng, acl, count):
    """Packets aimed at the rules: inside and just outside each prefix,
    on and just past each port-range edge."""
    pkts = []
    for _ in range(count):
        rule = rng.choice(acl)
        sip = (rule.src_net | (rng.getrandbits(32) & ~rule.src_mask)) & 0xFFFFFFFF
        dip = (rule.dst_net | (rng.getrandbits(32) & ~rule.dst_mask)) & 0xFFFFFFFF
        if rng.random() < 0.2:
            sip ^= 1 << rng.randrange(32)
        if rng.random() < 0.2:
            dip ^= 1 << rng.randrange(32)
        sport = rng.choice([rule.sport_range[0] - 1, *rule.sport_range,
                            rule.sport_range[1] + 1])
        dport = rng.choice([rule.dport_range[0] - 1, *rule.dport_range,
                            rule.dport_range[1] + 1])
        pkts.append(build_packet(
            src_ip=int_to_ip(sip), dst_ip=int_to_ip(dip),
            src_port=min(max(sport, 0), 65535),
            dst_port=min(max(dport, 0), 65535),
            protocol=rng.choice([6, 17]), size=64))
    return pkts


def _serve(nf, pkts):
    recorder = AccessRecorder()
    verdicts = []
    for pkt in pkts:
        pkt.recorder = recorder
        ctx = nf.handle(pkt)
        verdicts.append((ctx.dropped, ctx.drop_reason))
    index = {pkt.uid: i for i, pkt in enumerate(pkts)}
    events = [(e.verb, e.field, index[e.packet_uid]) for e in recorder.events]
    return verdicts, (nf.permitted, nf.denied), events


@pytest.mark.parametrize("seed", range(12))
def test_index_matches_the_linear_scan(seed):
    rng = random.Random(f"acl-index:{seed}")
    acl = _acl(rng)
    pkts = _packets(rng, acl, 300)
    twins = [Packet(bytearray(pkt.buf)) for pkt in pkts]
    indexed = _serve(Firewall(acl=acl), pkts)
    linear = _serve(LinearFirewall(acl=acl), twins)
    assert indexed == linear
    verdicts = indexed[0]
    # The stream reaches both verdicts, so the comparison has teeth.
    assert any(dropped for dropped, _ in verdicts)
    assert not all(dropped for dropped, _ in verdicts)


def test_permit_ahead_of_an_overlapping_deny():
    fw = Firewall(acl=[
        AclRule(src_prefix=("192.168.0.0", 16), dport_range=(443, 443),
                permit=False),
        AclRule(src_prefix=("192.168.1.0", 24), permit=True),
        AclRule(src_prefix=("0.0.0.0", 0), permit=False),
    ])
    assert fw.handle(build_packet(src_ip="192.168.1.7", dst_port=443)).dropped
    assert not fw.handle(build_packet(src_ip="192.168.1.7", dst_port=80)).dropped
    assert fw.handle(build_packet(src_ip="192.168.2.7", dst_port=80)).dropped
    assert fw.handle(build_packet(src_ip="10.0.0.1", dst_port=80)).dropped
    assert (fw.permitted, fw.denied) == (1, 3)


def test_default_acl_agrees_on_lab_and_test_range_traffic():
    acl = build_acl()
    rng = random.Random(7)
    pkts = [build_packet(src_ip=f"192.168.{rng.randrange(256)}.{rng.randrange(1, 255)}",
                         dst_port=rng.randrange(65536), size=64)
            for _ in range(400)]
    pkts += [build_packet(src_ip=f"10.0.{i}.1", size=64) for i in range(50)]
    twins = [Packet(bytearray(pkt.buf)) for pkt in pkts]
    assert _serve(Firewall(acl=acl), pkts) == _serve(LinearFirewall(acl=acl), twins)


def test_acl_is_frozen_at_construction():
    rules = [AclRule(src_prefix=("10.0.0.0", 8), permit=False)]
    fw = Firewall(acl=rules)
    rules.append(AclRule(permit=False))
    assert isinstance(fw.acl, tuple) and len(fw.acl) == 1
    assert not fw.handle(build_packet(src_ip="11.0.0.1", size=64)).dropped
