"""802.1Q VLAN tag and VXLAN outer-stack insertion/removal.

Structural primitives for the Lemur-style L2/tunnel NFs (VLAN push/pop,
VXLAN encap/decap): like :mod:`repro.net.ah` they splice whole header
units in and out of the frame, which the profile model expresses as
``Add``/``Remove`` of :data:`Field.VLAN_HEADER` / :data:`Field.VXLAN_HEADER`,
and each drops the parse memo of the packet it takes.  A tag's bytes
move in :func:`splice_vlan` / :func:`strip_vlan` only: the VLAN NFs'
:func:`insert_vlan` / :func:`remove_vlan` and the merger's ``add`` /
``remove`` call them.  No merge ever splices a VXLAN stack: the
compiler never runs an encapsulating NF in parallel.

Layout facts used throughout:

* A VLAN tag is 4 bytes (TPID ``0x8100`` + TCI) inserted *after* the
  MACs, i.e. at byte 12; a tagged frame's L3 header starts at 18
  (``Packet.l3_offset``).
* A VXLAN outer stack is 50 bytes prepended to the whole frame:
  outer Ethernet (14) + outer IPv4 (20) + outer UDP (8, dst port 4789)
  + VXLAN header (8, flags ``0x08`` + 24-bit VNI).

The outer VXLAN stack is built from raw bytes rather than through the
packet's views so that an attached :class:`AccessRecorder` sees exactly
the structural add/remove events -- not spurious SIP/DIP writes on the
*outer* header, which is new state the NF created, not a mutation of
the original packet's fields.
"""

from __future__ import annotations

import struct

from .checksum import internet_checksum
from .fields import Field
from .headers import (
    ETH_HEADER_LEN,
    ETHERTYPE_IPV4,
    ETHERTYPE_VLAN,
    PROTO_UDP,
    VLAN_TAG_LEN,
    Ipv4View,
    UdpView,
    ip_to_int,
    mac_to_bytes,
)
from .packet import Packet

__all__ = [
    "VXLAN_PORT",
    "VXLAN_HEADER_LEN",
    "VXLAN_OUTER_LEN",
    "insert_vlan",
    "remove_vlan",
    "splice_vlan",
    "strip_vlan",
    "vlan_tci",
    "is_vxlan",
    "vxlan_encap",
    "vxlan_decap",
    "vxlan_vni",
]

VXLAN_PORT = 4789
VXLAN_HEADER_LEN = 8
#: The outer Ethernet destination and source: the tunnel endpoints.
_VTEP_MACS = mac_to_bytes("02:00:00:00:10:02") + mac_to_bytes("02:00:00:00:10:01")
#: Outer Ethernet + IPv4 + UDP + VXLAN prepended by an encap.
VXLAN_OUTER_LEN = ETH_HEADER_LEN + Ipv4View.HEADER_LEN + UdpView.HEADER_LEN + VXLAN_HEADER_LEN


# ----------------------------------------------------------------- 802.1Q
def insert_vlan(pkt: Packet, vlan_id: int, pcp: int = 0) -> None:
    """Push an 802.1Q tag (or rewrite the TCI of an existing one)."""
    if not 0 <= vlan_id <= 0xFFF:
        raise ValueError("VLAN ID is 12 bits")
    if not 0 <= pcp <= 7:
        raise ValueError("PCP is 3 bits")
    rec = pkt.recorder
    if rec is not None:
        rec.record("add", Field.VLAN_HEADER, pkt.uid)
    splice_vlan(pkt, struct.pack("!HH", ETHERTYPE_VLAN, (pcp << 13) | vlan_id))


def remove_vlan(pkt: Packet) -> None:
    """Pop the 802.1Q tag.  Raises if the frame is untagged."""
    if not pkt.has_vlan:
        raise ValueError("frame carries no 802.1Q tag")
    rec = pkt.recorder
    if rec is not None:
        rec.record("remove", Field.VLAN_HEADER, pkt.uid)
    strip_vlan(pkt)


def splice_vlan(pkt: Packet, tag: bytes) -> None:
    """Put the 4-byte 802.1Q ``tag`` behind the MACs, replacing a tag
    already there; drops the parse memo."""
    pkt.memo_offsets = pkt.memo_key = None
    if pkt.has_vlan:
        pkt.buf[12 : 12 + VLAN_TAG_LEN] = tag
        return
    pkt.buf[12:12] = tag
    pkt.wire_len += VLAN_TAG_LEN


def strip_vlan(pkt: Packet) -> None:
    """Cut the 802.1Q tag of a tagged frame; drops the parse memo."""
    pkt.memo_offsets = pkt.memo_key = None
    del pkt.buf[12 : 12 + VLAN_TAG_LEN]
    pkt.wire_len -= VLAN_TAG_LEN


def vlan_tci(pkt: Packet) -> int:
    """The 16-bit TCI (PCP|DEI|VID) of a tagged frame."""
    if not pkt.has_vlan:
        raise ValueError("frame carries no 802.1Q tag")
    return (pkt.buf[14] << 8) | pkt.buf[15]


# ------------------------------------------------------------------ VXLAN
def is_vxlan(pkt: Packet) -> bool:
    """Raw-byte check for a VXLAN outer stack (untagged outer frame).

    Deliberately bypasses the packet views so a validity check can
    probe without logging field reads.
    """
    buf = pkt.buf
    if len(buf) < VXLAN_OUTER_LEN:
        return False
    if ((buf[12] << 8) | buf[13]) != ETHERTYPE_IPV4:
        return False
    ip_off = ETH_HEADER_LEN
    if buf[ip_off] != 0x45 or buf[ip_off + 9] != PROTO_UDP:
        return False
    udp_off = ip_off + Ipv4View.HEADER_LEN
    return ((buf[udp_off + 2] << 8) | buf[udp_off + 3]) == VXLAN_PORT


def vxlan_encap(
    pkt: Packet,
    vni: int,
    src_ip: str,
    dst_ip: str,
) -> None:
    """Prepend a 50-byte VXLAN outer stack around the whole frame: the
    tunnel endpoints' fixed MACs, UDP source port 49152 and TTL 64."""
    if not 0 <= vni < (1 << 24):
        raise ValueError("VNI is 24 bits")
    rec = pkt.recorder
    if rec is not None:
        rec.record("add", Field.VXLAN_HEADER, pkt.uid)
    inner_len = len(pkt.buf)
    # Outer identification echoes the inner one (read raw: the copy uid
    # differs across execution planes, and the outer stack is NF-created
    # state, not a footprint read).
    l3 = pkt.l3_offset
    inner_id = (pkt.buf[l3 + 4] << 8) | pkt.buf[l3 + 5] if len(
        pkt.buf) >= l3 + 6 else 0

    eth = _VTEP_MACS + struct.pack("!H", ETHERTYPE_IPV4)
    ip_total = Ipv4View.HEADER_LEN + UdpView.HEADER_LEN + VXLAN_HEADER_LEN + inner_len
    ip = bytearray(
        struct.pack(
            "!BBHHHBBHII",
            0x45,  # version 4, IHL 5
            0,  # DSCP/ECN
            ip_total,
            inner_id,  # identification
            0,  # flags/fragment offset
            64,  # TTL
            PROTO_UDP,
            0,  # checksum placeholder
            ip_to_int(src_ip),
            ip_to_int(dst_ip),
        )
    )
    struct.pack_into("!H", ip, 10, internet_checksum(bytes(ip)))
    udp = struct.pack(
        "!HHHH",
        49152,  # source port
        VXLAN_PORT,
        UdpView.HEADER_LEN + VXLAN_HEADER_LEN + inner_len,
        0,  # UDP checksum optional over IPv4
    )
    vxlan = struct.pack("!BBHI", 0x08, 0, 0, vni << 8)  # I-flag set, VNI<<8

    pkt.memo_offsets = pkt.memo_key = None
    pkt.buf[0:0] = eth + bytes(ip) + udp + vxlan
    pkt.wire_len += VXLAN_OUTER_LEN


def vxlan_decap(pkt: Packet) -> None:
    """Strip the VXLAN outer stack.  Raises if the frame is not VXLAN."""
    if not is_vxlan(pkt):
        raise ValueError("frame carries no VXLAN outer stack")
    rec = pkt.recorder
    if rec is not None:
        rec.record("remove", Field.VXLAN_HEADER, pkt.uid)
    pkt.memo_offsets = pkt.memo_key = None
    del pkt.buf[0:VXLAN_OUTER_LEN]
    pkt.wire_len -= VXLAN_OUTER_LEN


def vxlan_vni(pkt: Packet) -> int:
    """The 24-bit VNI of a VXLAN-encapsulated frame."""
    if not is_vxlan(pkt):
        raise ValueError("frame carries no VXLAN outer stack")
    off = VXLAN_OUTER_LEN - VXLAN_HEADER_LEN
    return struct.unpack_from("!I", pkt.buf, off + 4)[0] >> 8
