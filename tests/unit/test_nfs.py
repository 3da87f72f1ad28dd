"""Unit tests for all network function implementations (§6.1 + Table 2)."""

import pytest

from repro.net import PROTO_TCP, PROTO_UDP, Packet, build_packet, verify_ah
from repro.nfs import (
    AclRule,
    AhoCorasick,
    Caching,
    Compression,
    Firewall,
    Gateway,
    Ids,
    Ips,
    L3Forwarder,
    LoadBalancer,
    Monitor,
    Nat,
    Nids,
    Proxy,
    TrafficShaper,
    VpnDecryptor,
    VpnEncryptor,
    build_acl,
    build_routing_table,
    build_signatures,
    create_nf,
    nf_class,
    registered_kinds,
)
from repro.nfs.base import NetworkFunction, register_nf_class


# -------------------------------------------------------------- framework
def test_registry_has_all_table2_kinds():
    kinds = set(registered_kinds())
    assert {
        "forwarder", "loadbalancer", "firewall", "monitor", "vpn",
        "vpn-decrypt", "ids", "nids", "ips", "nat", "caching", "gateway",
        "proxy", "compression", "shaper",
    } <= kinds


def test_create_nf_by_kind():
    nf = create_nf("firewall", name="fw-east")
    assert isinstance(nf, Firewall)
    assert nf.name == "fw-east"
    with pytest.raises(KeyError):
        create_nf("teleporter")
    assert nf_class("monitor") is Monitor


def test_base_class_requires_kind():
    class NoKind(NetworkFunction):
        pass

    with pytest.raises(TypeError):
        NoKind()
    with pytest.raises(ValueError):
        register_nf_class(NoKind)


def test_handle_tracks_stats():
    mon = Monitor()
    pkt = build_packet(size=64)
    ctx = mon.handle(pkt)
    assert not ctx.dropped
    assert (mon.rx_packets, mon.dropped_packets, mon.errors) == (1, 0, 0)
    mon.reset_stats()
    assert (mon.rx_packets, mon.dropped_packets, mon.errors) == (0, 0, 0)


# -------------------------------------------------------------- forwarder
def test_forwarder_decrements_ttl_and_fixes_checksum():
    fwd = L3Forwarder()
    pkt = build_packet(size=64, ttl=10)
    ctx = fwd.handle(pkt)
    assert not ctx.dropped
    assert pkt.ipv4.ttl == 9
    assert pkt.ipv4.verify_checksum()
    assert fwd.last_next_hop is not None


def test_forwarder_drops_expired_ttl():
    fwd = L3Forwarder()
    pkt = build_packet(size=64, ttl=1)
    assert fwd.handle(pkt).dropped


def test_forwarder_drops_unroutable_without_default():
    from repro.net import LpmTable

    table = LpmTable()
    table.insert("10.0.0.0", 8, "hop")
    fwd = L3Forwarder(routes=table)
    assert not fwd.handle(build_packet(dst_ip="10.1.1.1", size=64)).dropped
    assert fwd.handle(build_packet(dst_ip="172.16.0.1", size=64)).dropped
    assert fwd.no_route == 1


def test_routing_table_has_requested_entries_and_default():
    table = build_routing_table(entries=200)
    assert len(table) == 200
    assert table.lookup("203.0.113.200") is not None  # default route


# --------------------------------------------------------------- firewall
def test_firewall_default_permit():
    fw = Firewall()
    assert not fw.handle(build_packet(src_ip="10.3.3.3", size=64)).dropped
    assert fw.permitted == 1


def test_firewall_deny_rule_matches():
    deny = AclRule(src_prefix=("192.168.1.0", 24), permit=False)
    fw = Firewall(acl=[deny])
    assert fw.handle(build_packet(src_ip="192.168.1.50", size=64)).dropped
    assert fw.denied == 1
    assert not fw.handle(build_packet(src_ip="192.168.2.50", size=64)).dropped


@pytest.mark.parametrize("proto", [PROTO_TCP, PROTO_UDP])
def test_firewall_refuses_a_cut_short_transport_header(proto):
    # Four bytes after the IP header: the ports, but not the header.
    whole = build_packet(protocol=proto, size=80)
    ctx = Firewall().handle(Packet(bytearray(whole.buf[:38])))
    assert ctx.dropped
    assert ctx.drop_reason == "nf-error: L4 header cut short at offset 34"


def test_firewall_first_match_wins():
    allow = AclRule(src_prefix=("192.168.1.0", 24), permit=True)
    deny = AclRule(src_prefix=("192.168.0.0", 16), permit=False)
    fw = Firewall(acl=[allow, deny])
    assert not fw.handle(build_packet(src_ip="192.168.1.9", size=64)).dropped
    assert fw.handle(build_packet(src_ip="192.168.9.9", size=64)).dropped


def test_firewall_port_range_match():
    deny = AclRule(dport_range=(1000, 2000), permit=False)
    fw = Firewall(acl=[deny])
    assert fw.handle(build_packet(dst_port=1500, size=64)).dropped
    assert not fw.handle(build_packet(dst_port=80, size=64)).dropped


def test_firewall_denies_a_first_fragment_by_its_ports():
    # Fragment 0 (MF set, offset 0) carries the real TCP header; a later
    # fragment carries payload there, so no port rule applies to it.
    fw = Firewall(acl=[AclRule(dport_range=(1000, 2000), permit=False)])
    first = build_packet(dst_port=1500, size=64)
    first.ipv4.more_fragments = True
    first.ipv4.update_checksum()
    assert fw.handle(first).dropped
    later = build_packet(dst_port=1500, size=64)
    later.ipv4.fragment_offset = 8
    later.ipv4.update_checksum()
    assert not fw.handle(later).dropped
    assert (fw.denied, fw.permitted) == (1, 1)


def test_acl_rule_validation():
    with pytest.raises(ValueError):
        AclRule(src_prefix=("10.0.0.0", 40))
    with pytest.raises(ValueError):
        AclRule(sport_range=(10, 5))


def test_default_acl_passes_lab_traffic():
    fw = Firewall(acl=build_acl())
    for i in range(50):
        pkt = build_packet(src_ip=f"10.0.0.{i + 1}", size=64)
        assert not fw.handle(pkt).dropped


# ---------------------------------------------------------------- monitor
def test_monitor_counts_per_flow():
    mon = Monitor()
    a = build_packet(src_port=1, size=64)
    b = build_packet(src_port=2, size=128)
    mon.handle(a)
    mon.handle(a.full_copy(1))
    mon.handle(b)
    assert mon.flow_count() == 2
    assert mon.totals() == (3, 64 + 64 + 128)
    stats = mon.stats_for(a.five_tuple())
    assert stats.packets == 2
    top = mon.top_flows(1)
    assert top[0][0] == a.five_tuple()


# ------------------------------------------------------------------ LB
def test_loadbalancer_rewrites_and_checksums():
    lb = LoadBalancer(backends=["172.16.0.1", "172.16.0.2"], vip="10.255.0.9")
    pkt = build_packet(size=64)
    lb.handle(pkt)
    assert pkt.ipv4.src_ip == "10.255.0.9"
    assert pkt.ipv4.dst_ip in lb.backends
    assert pkt.ipv4.verify_checksum()


def test_loadbalancer_is_flow_consistent():
    lb = LoadBalancer()
    picks = set()
    for _ in range(5):
        pkt = build_packet(src_port=777, size=64)
        picks.add(lb.pick_backend(pkt))
    assert len(picks) == 1


def test_loadbalancer_spreads_flows():
    lb = LoadBalancer()
    for i in range(400):
        lb.handle(build_packet(src_port=1000 + i, size=64))
    assert lb.imbalance() < 1.6


def test_loadbalancer_sends_every_fragment_of_a_datagram_to_one_backend():
    # Only fragment 0 carries the UDP ports; fragments 1..7 carry payload
    # bytes at the L4 offset, distinct per fragment.
    fragments = []
    for index in range(8):
        pkt = build_packet(src_ip="10.1.2.3", dst_ip="10.9.8.7", src_port=5353,
                           dst_port=53, protocol=PROTO_UDP, size=120)
        ip = pkt.ipv4
        ip.more_fragments = index < 7
        ip.fragment_offset = index * 10
        if index:
            pkt.buf[34:38] = bytes([index, 17 * index, 255 - index, 3 * index])
        ip.update_checksum()
        fragments.append(pkt)
    assert len({pkt.five_tuple()[3:] for pkt in fragments}) == 8
    lb = LoadBalancer()
    assert len({lb.pick_backend(pkt) for pkt in fragments}) == 1
    for pkt in fragments:
        lb.handle(pkt)
    assert len({pkt.ipv4.dst_ip for pkt in fragments}) == 1
    assert sorted(lb.per_backend.values())[-1] == 8


def test_loadbalancer_sends_a_short_last_fragment_with_its_datagram():
    # A trailing fragment with fewer bytes after the IP header than a
    # UDP header: there are no "ports" to read, and none are needed.
    lb = LoadBalancer()
    first = build_packet(src_ip="10.1.2.3", dst_ip="10.9.8.7", src_port=5353,
                         dst_port=53, protocol=PROTO_UDP, size=120)
    first.ipv4.more_fragments = True
    first.ipv4.update_checksum()
    for tail in range(8):
        last = Packet(bytearray(first.buf[:34 + tail]))
        ip = last.ipv4
        ip.more_fragments = False
        ip.fragment_offset = 40
        ip.total_length = 20 + tail
        ip.update_checksum()
        assert lb.pick_backend(last) == lb.pick_backend(first)
        assert not lb.handle(last).dropped
        assert last.ipv4.dst_ip == lb.pick_backend(first)


def test_loadbalancer_requires_backends():
    with pytest.raises(ValueError):
        LoadBalancer(backends=[])


# -------------------------------------------------------------------- VPN
def test_vpn_roundtrip_and_metadata():
    enc, dec = VpnEncryptor(), VpnDecryptor()
    pkt = build_packet(size=200, payload=b"top secret")
    original = bytes(pkt.buf)
    enc.handle(pkt)
    assert pkt.has_ah
    assert verify_ah(pkt, enc.key)
    assert b"top secret" not in bytes(pkt.buf)
    dec.handle(pkt)
    assert bytes(pkt.buf) == original


def test_vpn_second_hop_reencrypts_without_stacking_headers():
    enc = VpnEncryptor()
    pkt = build_packet(size=128, payload=b"pp")
    enc.handle(pkt)
    first_len = len(pkt.buf)
    assert not enc.handle(pkt).dropped
    assert len(pkt.buf) == first_len  # no second AH
    assert pkt.ah.seq == 2


def test_vpn_second_hop_restamps_the_icv():
    # The second hop rewrites the payload the ICV covers; a stale ICV
    # made a verifying decryptor drop every such packet.
    enc, dec = VpnEncryptor(), VpnDecryptor(verify=True)
    pkt = build_packet(size=200, payload=b"twice encrypted")
    enc.handle(pkt)
    once = pkt.payload
    enc.handle(pkt)
    assert verify_ah(pkt, enc.key)
    result = dec.handle(pkt)
    assert not result.dropped and dec.auth_failures == 0
    # The decryptor peels the outer (seq 2) keystream only.
    assert not pkt.has_ah and pkt.payload == once


def test_vpn_decryptor_rejects_plain_packet():
    assert VpnDecryptor().handle(build_packet(size=128)).dropped


def test_vpn_decryptor_detects_tampering():
    enc, dec = VpnEncryptor(), VpnDecryptor()
    pkt = build_packet(size=200, payload=b"x")
    enc.handle(pkt)
    pkt.buf[-1] ^= 0xFF
    assert dec.handle(pkt).dropped
    assert dec.auth_failures == 1


@pytest.mark.parametrize("vpn_class", [VpnEncryptor, VpnDecryptor])
def test_vpn_key_length_checked(vpn_class):
    with pytest.raises(ValueError, match="VPN key must be 16 bytes"):
        vpn_class(key=b"short")


@pytest.mark.parametrize("spi", [1 << 32, -1])
def test_vpn_spi_range_checked_at_construction(spi):
    # Accepted, it would make insert_ah raise on every packet and
    # handle() drop each one as an nf-error.
    with pytest.raises(ValueError, match="SPI"):
        VpnEncryptor(spi=spi)


def test_vpn_spi_range_edges_accepted():
    for spi in (0, (1 << 32) - 1):
        pkt = build_packet(size=128, payload=b"p")
        assert not VpnEncryptor(spi=spi).handle(pkt).dropped
        assert pkt.ah.spi == spi


# ---------------------------------------------------------------- IDS/IPS
def test_ids_alerts_without_dropping():
    ids = Ids(signatures=[b"evil-signature"])
    pkt = build_packet(size=200, payload=b"prefix evil-signature suffix")
    assert not ids.handle(pkt).dropped
    assert ids.alerts == 1


def test_ids_counts_multiple_matches():
    ids = Ids(signatures=[b"aa"])
    pkt = build_packet(size=200, payload=b"aaa")  # two overlapping matches
    ids.handle(pkt)
    assert ids.alerts == 2


def test_ips_drops_on_match():
    ips = Ips(signatures=[b"evil"])
    assert ips.handle(build_packet(size=128, payload=b"so evil")).dropped
    assert ips.blocked == 1
    assert not ips.handle(build_packet(size=128, payload=b"benign")).dropped


def test_nids_is_detection_only():
    nids = Nids(signatures=[b"evil"])
    assert not nids.handle(build_packet(size=128, payload=b"evil")).dropped


def test_signature_corpus_deterministic():
    assert build_signatures(50) == build_signatures(50)
    assert len(build_signatures(100)) == 100


# -------------------------------------------------------------------- NAT
def test_nat_allocates_stable_bindings():
    nat = Nat()
    p1 = build_packet(src_ip="10.0.0.1", src_port=5000, size=64)
    p2 = build_packet(src_ip="10.0.0.1", src_port=5000, size=64)
    nat.handle(p1)
    nat.handle(p2)
    assert nat.binding_count() == 1
    assert p1.tcp.src_port == p2.tcp.src_port
    assert p1.ipv4.src_ip == nat.external_ip
    assert p1.ipv4.verify_checksum()


def test_nat_distinct_flows_distinct_ports():
    nat = Nat()
    p1 = build_packet(src_ip="10.0.0.1", src_port=5000, size=64)
    p2 = build_packet(src_ip="10.0.0.2", src_port=5000, size=64)
    nat.handle(p1)
    nat.handle(p2)
    assert p1.tcp.src_port != p2.tcp.src_port
    binding = nat.lookup_external(p2.tcp.src_port)
    assert binding.internal_ip == "10.0.0.2"


def test_nat_handles_udp_and_passes_others_through():
    # Non-TCP/UDP traffic passes through untranslated: NAT's declared
    # profile has no Drop, and the profile-audit oracle holds the code
    # to the declaration (an undeclared drop is a hard finding).
    nat = Nat()
    udp = build_packet(protocol=PROTO_UDP, size=64)
    assert not nat.handle(udp).dropped
    icmp_like = build_packet(size=64)
    icmp_like.ipv4.protocol = 1
    before = bytes(icmp_like.buf)
    assert not nat.handle(icmp_like).dropped
    assert bytes(icmp_like.buf) == before


def test_nat_passes_a_later_fragment_through_untouched():
    # A fragment past the first has no L4 header: its "ports" are
    # payload bytes.  No rewrite, no binding.
    nat = Nat()
    frag = build_packet(size=96)
    frag.ipv4.fragment_offset = 8
    before = bytes(frag.buf)
    assert not nat.handle(frag).dropped
    assert bytes(frag.buf) == before
    assert nat.binding_count() == 0


def test_nat_translates_a_first_fragment():
    # MF set at offset 0: the L4 header is there, so it translates.
    nat = Nat()
    first = build_packet(src_ip="10.0.0.1", src_port=5000, size=96)
    first.ipv4.more_fragments = True
    assert not nat.handle(first).dropped
    assert first.ipv4.src_ip == nat.external_ip
    assert first.tcp.src_port != 5000
    assert first.ipv4.verify_checksum()
    assert nat.binding_count() == 1


def test_nat_pool_exhaustion_is_contained():
    # Port-pool exhaustion raises inside the NF; the fault-isolation
    # boundary in handle() converts it to a counted drop.
    nat = Nat(port_count=2)
    nat.handle(build_packet(src_ip="10.0.0.1", src_port=1, size=64))
    nat.handle(build_packet(src_ip="10.0.0.2", src_port=1, size=64))
    ctx = nat.handle(build_packet(src_ip="10.0.0.3", src_port=1, size=64))
    assert ctx.dropped
    assert "nf-error" in ctx.drop_reason
    assert nat.errors == 1


# ------------------------------------------------------------------ misc
def test_caching_hit_ratio_converges():
    cache = Caching(hit_ratio=0.8)
    for i in range(500):
        cache.handle(build_packet(dst_ip=f"10.9.{i % 250}.{i % 99 + 1}",
                                  size=96, payload=b"%d" % i))
    assert abs(cache.observed_hit_ratio() - 0.8) < 0.1


def test_caching_is_deterministic_per_request():
    a, b = Caching(seed=1), Caching(seed=1)
    pkt = build_packet(size=96, payload=b"req")
    a.handle(pkt)
    b.handle(pkt.full_copy(1))
    assert (a.hits, a.misses) == (b.hits, b.misses)


def test_gateway_counts_address_pairs():
    gw = Gateway()
    gw.handle(build_packet(src_ip="10.0.0.1", dst_ip="10.0.0.9", size=64))
    gw.handle(build_packet(src_ip="10.0.0.1", dst_ip="10.0.0.9", size=64))
    gw.handle(build_packet(src_ip="10.0.0.2", dst_ip="10.0.0.9", size=64))
    assert gw.pair_count() == 2


def test_proxy_redirects_and_stamps():
    proxy = Proxy(origin="198.51.100.77")
    pkt = build_packet(size=128, payload=b"GET / HTTP/1.1 request padding")
    proxy.handle(pkt)
    assert pkt.ipv4.dst_ip == "198.51.100.77"
    assert pkt.payload.startswith(Proxy.VIA_TAG)
    assert pkt.ipv4.verify_checksum()


def test_compression_is_involutive():
    codec = Compression()
    pkt = build_packet(size=128, payload=b"compressible data")
    before = pkt.payload
    codec.handle(pkt)
    assert pkt.payload != before
    codec.handle(pkt)
    assert pkt.payload == before
    with pytest.raises(ValueError):
        Compression(key=300)


def test_shaper_token_bucket():
    shaper = TrafficShaper(rate_bytes_per_us=100.0, burst_bytes=200, police=True)
    big = build_packet(size=128)
    assert not shaper.handle(big).dropped  # 200 - 128 = 72 tokens left
    assert shaper.handle(build_packet(size=128)).dropped  # out of profile
    shaper.advance_time(10.0)  # refill 1000 -> capped at burst
    assert not shaper.handle(build_packet(size=128)).dropped


def test_shaper_counts_without_policing():
    shaper = TrafficShaper(rate_bytes_per_us=1.0, burst_bytes=64)
    shaper.handle(build_packet(size=64))
    assert not shaper.handle(build_packet(size=64)).dropped
    assert shaper.out_of_profile == 1


# ----------------------------------------------------------- aho-corasick
def test_aho_corasick_classic_example():
    ac = AhoCorasick([b"he", b"she", b"his", b"hers"])
    found = sorted(p for p, _ in ac.findall(b"ushers"))
    assert found == [b"he", b"hers", b"she"]


def test_aho_corasick_overlapping_matches():
    ac = AhoCorasick([b"aa"])
    assert ac.match_count(b"aaaa") == 3


def test_aho_corasick_no_match():
    ac = AhoCorasick([b"needle"])
    assert ac.match_count(b"haystack" * 10) == 0


def test_aho_corasick_rejects_empty_pattern():
    with pytest.raises(ValueError):
        AhoCorasick([b""])


def test_aho_corasick_end_offsets():
    ac = AhoCorasick([b"bc"])
    assert list(ac.finditer(b"abcabc")) == [(0, 3), (0, 6)]


# --------------------------------------------------------- IDS signatures
def test_signature_constraints_filter_matches():
    from repro.nfs import Signature
    from repro.net import PROTO_TCP

    sig = Signature(b"attack", msg="http attack", protocol=PROTO_TCP, dport=80)
    ids = Ids(signatures=[sig])
    hit = build_packet(dst_port=80, size=200, payload=b"an attack here")
    miss_port = build_packet(dst_port=443, size=200, payload=b"an attack here")
    ids.handle(hit)
    ids.handle(miss_port)
    assert ids.alerts == 1
    assert ids.alerts_by_sid[sig.sid] == 1


def test_signature_port_constraint_matches_a_first_fragment():
    from repro.nfs import Signature

    sig = Signature(b"attack", dport=80)
    first = build_packet(dst_port=80, size=200, payload=b"an attack here")
    first.ipv4.more_fragments = True
    first.ipv4.update_checksum()
    assert sig.constraints_match(first)
    ids = Ids(signatures=[sig])
    ids.handle(first)
    assert ids.alerts == 1


def test_signature_validation_and_sid_allocation():
    from repro.nfs import Signature

    with pytest.raises(ValueError):
        Signature(b"")
    a, b = Signature(b"x"), Signature(b"y")
    assert a.sid != b.sid
    explicit = Signature(b"z", sid=424242)
    assert explicit.sid == 424242


def test_ids_accepts_mixed_signature_types():
    from repro.nfs import Signature

    ids = Ids(signatures=[b"raw-pattern", Signature(b"rule-pattern", dport=80)])
    pkt = build_packet(dst_port=80, size=200,
                       payload=b"raw-pattern and rule-pattern")
    ids.handle(pkt)
    assert ids.alerts == 2


def test_ids_per_rule_counters():
    from repro.nfs import Signature

    noisy = Signature(b"aa", msg="noisy")
    quiet = Signature(b"zz", msg="quiet")
    ids = Ids(signatures=[noisy, quiet])
    ids.handle(build_packet(size=200, payload=b"aaa"))  # two hits of "aa"
    ids.handle(build_packet(size=200, payload=b"zz"))
    assert ids.alerts_by_sid[noisy.sid] == 2
    assert ids.alerts_by_sid[quiet.sid] == 1
