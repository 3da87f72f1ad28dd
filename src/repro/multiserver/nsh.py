"""Network Service Header carriage of NFP metadata between servers.

For cross-server graphs the paper says "packet delivery between servers
could refer to Flowtags [16] or Network Service Header (NSH) [51]"
(§7).  We implement an NSH-style shim that rides between the Ethernet
and IPv4 headers on inter-server links, carrying:

* service path id / index (which slice of which graph comes next), and
* the NFP 64-bit metadata word (MID | PID | version), so the next
  server's dataplane can resume the flight without re-classifying.

A dropped packet never leaves its server, so no flag is needed: the
flags byte is written 0 and ignored on receipt.

Layout (16 bytes)::

    0        2        3        4            8                16
    +--------+--------+--------+------------+----------------+
    | magic  | flags  | index  | path id    | metadata word  |
    +--------+--------+--------+------------+----------------+

The shim changes the Ethernet ethertype to a private value while
present, so ordinary IPv4 parsing fails fast if a tagged packet leaks
into an NF.
"""

from __future__ import annotations

import struct

from ..net.headers import ETH_HEADER_LEN, ETHERTYPE_IPV4
from ..net.packet import Packet, PacketMeta

__all__ = ["NshTag", "encapsulate", "decapsulate", "has_nsh", "NSH_LEN"]

NSH_LEN = 16
_MAGIC = 0x9F17
#: Private ethertype marking an NSH-tagged frame.
ETHERTYPE_NSH = 0x894F

_STRUCT = struct.Struct("!HBBIQ")
assert _STRUCT.size == NSH_LEN


class NshTag:
    """Decoded NSH shim contents."""

    __slots__ = ("path_id", "index", "meta")

    def __init__(self, path_id: int, index: int, meta: PacketMeta):
        if not 0 <= path_id <= 0xFFFFFFFF:
            raise ValueError("path id out of range")
        if not 0 <= index <= 0xFF:
            raise ValueError("service index out of range")
        self.path_id = path_id
        self.index = index
        self.meta = meta

    def __repr__(self) -> str:
        return (
            f"NshTag(path={self.path_id}, index={self.index}, "
            f"meta={self.meta})"
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NshTag)
            and (self.path_id, self.index, self.meta) ==
                (other.path_id, other.index, other.meta)
        )


def has_nsh(pkt: Packet) -> bool:
    """Whether the frame carries the NSH shim."""
    return len(pkt.buf) >= ETH_HEADER_LEN and pkt.eth.ethertype == ETHERTYPE_NSH


def encapsulate(pkt: Packet, tag: NshTag) -> None:
    """Insert the shim after the Ethernet header (in place)."""
    if has_nsh(pkt):
        raise ValueError("packet already NSH-tagged")
    shim = _STRUCT.pack(_MAGIC, 0, tag.index, tag.path_id, tag.meta.pack())
    pkt.memo_offsets = pkt.memo_key = None
    pkt.buf[ETH_HEADER_LEN:ETH_HEADER_LEN] = shim
    pkt.eth.ethertype = ETHERTYPE_NSH
    pkt.wire_len += NSH_LEN


def decapsulate(pkt: Packet) -> NshTag:
    """Strip the shim and return its contents; restores plain IPv4."""
    if not has_nsh(pkt):
        raise ValueError("packet carries no NSH shim")
    raw = bytes(pkt.buf[ETH_HEADER_LEN : ETH_HEADER_LEN + NSH_LEN])
    magic, _flags, index, path_id, word = _STRUCT.unpack(raw)
    if magic != _MAGIC:
        raise ValueError("corrupt NSH shim")
    pkt.memo_offsets = pkt.memo_key = None
    del pkt.buf[ETH_HEADER_LEN : ETH_HEADER_LEN + NSH_LEN]
    pkt.eth.ethertype = ETHERTYPE_IPV4
    pkt.wire_len -= NSH_LEN
    meta = PacketMeta.unpack(word)
    pkt.meta = meta
    return NshTag(path_id, index, meta)
