"""The view-chain packet parse: the differential oracle for ``repro.net``.

Until the single-pass resolver (``Packet._resolve``) landed, every
packet-level question -- where is L3, what is the transport protocol,
where does the payload start, what is the five-tuple -- was answered by
building header views on top of each other: ``l3_offset`` asked
``has_vlan``, ``ipv4`` asked ``l3_offset``, ``l4_protocol`` asked
``ipv4`` and ``ah``, ``tcp`` asked ``l4_protocol`` and ``_l4_offset``,
and so on.  This module is that code, transcribed as free functions over
``pkt.buf`` and the view *classes* only (it never touches a ``Packet``
property that the resolver now backs), together with the byte-loop
Internet checksum and the merge ``modify`` that round-tripped a field
through its Python value (address bytes -> dotted quad -> int -> bytes).

It favours being obviously the old behaviour over speed, and is what
``tests/property/test_packet_properties.py`` holds the fast path to:
same value, or the same exception type.
"""

from __future__ import annotations

import struct

from repro.net.fields import Field
from repro.net.headers import (
    ETH_HEADER_LEN,
    ETHERTYPE_IPV4,
    ETHERTYPE_VLAN,
    PROTO_AH,
    PROTO_TCP,
    PROTO_UDP,
    VLAN_TAG_LEN,
    AhView,
    EthernetView,
    Ipv4View,
    TcpView,
    UdpView,
)
from repro.net.packet import Packet
from repro.net.recorder import (
    RecordingEthernetView,
    RecordingIpv4View,
    RecordingTcpView,
    RecordingUdpView,
)

__all__ = [
    "has_vlan", "l3_offset", "ipv4", "has_ah", "ah", "l4_protocol", "tcp",
    "udp", "payload_offset", "five_tuple", "flow_key", "port_key",
    "header_copy",
    "internet_checksum", "int_to_ip", "ip_to_int", "read_field",
    "write_field", "modify",
]


# ------------------------------------------------------------- view chain
def has_vlan(pkt: Packet) -> bool:
    buf = pkt.buf
    return (
        len(buf) >= ETH_HEADER_LEN + VLAN_TAG_LEN
        and ((buf[12] << 8) | buf[13]) == ETHERTYPE_VLAN
    )


def l3_offset(pkt: Packet) -> int:
    return ETH_HEADER_LEN + VLAN_TAG_LEN if has_vlan(pkt) else ETH_HEADER_LEN


def eth(pkt: Packet) -> EthernetView:
    rec = pkt.recorder
    if rec is None:
        return EthernetView(pkt.buf, 0)
    return RecordingEthernetView(pkt.buf, 0)._bind(rec, pkt.uid)


def ipv4(pkt: Packet) -> Ipv4View:
    off = l3_offset(pkt)
    buf = pkt.buf
    if len(buf) < off or ((buf[off - 2] << 8) | buf[off - 1]) != ETHERTYPE_IPV4:
        raise ValueError("packet is not IPv4")
    if Ipv4View(buf, off).ihl < 5:  # RFC 791's least IHL
        raise ValueError("IPv4 IHL below 5")
    rec = pkt.recorder
    if rec is None:
        return Ipv4View(buf, off)
    return RecordingIpv4View(buf, off)._bind(rec, pkt.uid)


def has_ah(pkt: Packet) -> bool:
    try:
        return ipv4(pkt).protocol == PROTO_AH
    except ValueError:
        return False


def ah(pkt: Packet) -> AhView:
    ip = ipv4(pkt)
    if ip.protocol != PROTO_AH:
        raise ValueError("packet has no Authentication Header")
    return AhView(pkt.buf, l3_offset(pkt) + ip.header_len)


def _l4_offset(pkt: Packet) -> int:
    ip = ipv4(pkt)
    offset = l3_offset(pkt) + ip.header_len
    if ip.protocol == PROTO_AH:
        offset += AhView.HEADER_LEN
    return offset


def l4_protocol(pkt: Packet) -> int:
    ip = ipv4(pkt)
    if ip.protocol == PROTO_AH:
        return ah(pkt).next_header
    return ip.protocol


def tcp(pkt: Packet) -> TcpView:
    if l4_protocol(pkt) != PROTO_TCP:
        raise ValueError("packet is not TCP")
    rec = pkt.recorder
    if rec is None:
        return TcpView(pkt.buf, _l4_offset(pkt))
    return RecordingTcpView(pkt.buf, _l4_offset(pkt))._bind(rec, pkt.uid)


def udp(pkt: Packet) -> UdpView:
    if l4_protocol(pkt) != PROTO_UDP:
        raise ValueError("packet is not UDP")
    rec = pkt.recorder
    if rec is None:
        return UdpView(pkt.buf, _l4_offset(pkt))
    return RecordingUdpView(pkt.buf, _l4_offset(pkt))._bind(rec, pkt.uid)


def payload_offset(pkt: Packet) -> int:
    offset = _l4_offset(pkt)
    proto = l4_protocol(pkt)
    if proto == PROTO_TCP:
        header_len = TcpView(pkt.buf, offset).header_len
        if header_len < TcpView.HEADER_LEN:  # RFC 9293's least data offset
            raise ValueError("TCP data offset below 5")
        offset += header_len
    elif proto == PROTO_UDP:
        offset += UdpView.HEADER_LEN
    return offset


def five_tuple(pkt: Packet) -> tuple:
    ip = ipv4(pkt)
    proto = l4_protocol(pkt)
    if proto == PROTO_TCP:
        l4 = tcp(pkt)
        return (ip.src_ip, ip.dst_ip, proto, l4.src_port, l4.dst_port)
    if proto == PROTO_UDP:
        l4 = udp(pkt)
        return (ip.src_ip, ip.dst_ip, proto, l4.src_port, l4.dst_port)
    return (ip.src_ip, ip.dst_ip, proto, 0, 0)


def flow_key(pkt: Packet, later_only: bool = False) -> bytes:
    """``Packet.flow_key`` over the view chain: the 13 bytes
    ``sip | dip | proto | sport | dport``, ports 0 on a fragment --
    with ``later_only``, ``Packet.port_key``: ports 0 only on a fragment
    past the first."""
    ip = ipv4(pkt)
    proto = l4_protocol(pkt)
    sport = dport = 0
    portless = ip.fragment_offset if later_only else (
        ip.more_fragments or ip.fragment_offset)
    if proto in (PROTO_TCP, PROTO_UDP) and not portless:
        _, _, _, sport, dport = five_tuple(pkt)
    return struct.pack("!IIBHH", ip_to_int(ip.src_ip), ip_to_int(ip.dst_ip),
                       proto, sport, dport)


def port_key(pkt: Packet) -> bytes:
    return flow_key(pkt, later_only=True)


def header_copy(pkt: Packet, version: int, nbytes: int = 64) -> Packet:
    try:
        nbytes = max(nbytes, payload_offset(pkt))
    except ValueError:
        pass  # not IPv4/TCP/UDP: keep the requested size
    nbytes = min(nbytes, len(pkt.buf))
    copy = Packet(
        bytearray(pkt.buf[:nbytes]),
        meta=pkt.meta.clone(version) if pkt.meta else None,
        wire_len=pkt.wire_len,
        is_header_copy=True,
    )
    copy.ingress_us = pkt.ingress_us
    l3 = l3_offset(pkt)
    if nbytes >= l3 + Ipv4View.HEADER_LEN and (
        ((pkt.buf[l3 - 2] << 8) | pkt.buf[l3 - 1]) == ETHERTYPE_IPV4
    ):
        ip = Ipv4View(copy.buf, l3)
        ip.total_length = nbytes - l3
    rec = pkt.recorder
    if rec is not None:
        copy.recorder = rec
        rec.record("copy-header", None, pkt.uid)
    return copy


# ------------------------------------------------- addresses and checksum
def ip_to_int(address: str) -> int:
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address: {address!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"malformed IPv4 address: {address!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"IPv4 address out of range: {value!r}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def internet_checksum(data: bytes) -> int:
    total = 0
    length = len(data)
    # Sum 16-bit big-endian words.
    for i in range(0, length - 1, 2):
        total += (data[i] << 8) | data[i + 1]
    if length % 2:
        total += data[-1] << 8
    # Fold carries.
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


# ------------------------------------------------------------ merge modify
def _l4(pkt: Packet):
    proto = l4_protocol(pkt)
    if proto == PROTO_TCP:
        return tcp(pkt)
    if proto == PROTO_UDP:
        return udp(pkt)
    raise ValueError("packet has no TCP/UDP ports")


def _payload(pkt: Packet) -> bytes:
    return bytes(pkt.buf[payload_offset(pkt):])


def _set_payload(pkt: Packet, data: bytes) -> None:
    start = payload_offset(pkt)
    if len(data) != len(pkt.buf) - start:
        raise ValueError("set_payload must preserve length")
    pkt.buf[start:] = data


#: Field -> (owning view, attribute) for the header fields.
_HEADER_FIELDS = {
    Field.SIP: (ipv4, "src_ip"),
    Field.DIP: (ipv4, "dst_ip"),
    Field.TTL: (ipv4, "ttl"),
    Field.DSCP: (ipv4, "dscp"),
    Field.SPORT: (_l4, "src_port"),
    Field.DPORT: (_l4, "dst_port"),
    Field.SMAC: (eth, "src_mac"),
    Field.DMAC: (eth, "dst_mac"),
}


def read_field(pkt: Packet, field: Field):
    if field is Field.PAYLOAD:
        return _payload(pkt)
    try:
        view, attr = _HEADER_FIELDS[field]
    except KeyError:
        raise ValueError(f"field {field} is not value-addressable") from None
    return getattr(view(pkt), attr)


def write_field(pkt: Packet, field: Field, value) -> None:
    if field is Field.PAYLOAD:
        _set_payload(pkt, value)
        return
    try:
        view, attr = _HEADER_FIELDS[field]
    except KeyError:
        raise ValueError(f"field {field} is not value-addressable") from None
    setattr(view(pkt), attr, value)


def modify(base: Packet, source: Packet, field: Field) -> bool:
    """One merge ``modify(v1.field, vk.field)``; False when skipped.

    A field the source cannot parse was never written there: skip.  A
    base that cannot take the value is an error (``ValueError``).
    """
    try:
        value = read_field(source, field)
    except ValueError:
        return False
    write_field(base, field, value)
    return True
