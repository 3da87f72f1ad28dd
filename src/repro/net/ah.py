"""IPsec Authentication Header insertion/removal (transport-style).

The VPN NF implements "the tunnel mode of IPsec Authentication Header
(AH) protocol" (§6.1).  For the dataplane the structurally relevant part
is that a 24-byte AH is spliced between the IPv4 header and the L4
segment and later removed -- the add/remove actions of Table 2.

:func:`splice_ah` / :func:`strip_ah` are the one place an AH's bytes
move: the VPN's :func:`insert_ah` / :func:`remove_ah` and the merger's
``add`` / ``remove`` all call them.  A mover fixes the IPv4 protocol,
total length and ``wire_len`` and drops the packet's parse memo; the
IPv4 checksum is its caller's, who may have more of the header to
write first (the ICV, a merge's other operations).
"""

from __future__ import annotations

import hmac
import struct

from .checksum import ipv4_header_checksum
from .crypto import compute_icv
from .fields import Field
from .headers import PROTO_AH, AhView
from .packet import Packet

__all__ = ["insert_ah", "refresh_icv", "remove_ah", "splice_ah", "strip_ah",
           "verify_ah"]

# next header, payload len (header length in 32-bit words minus 2),
# reserved, SPI, sequence number, and a zero ICV to be stamped in place.
_AH_HEADER = struct.Struct("!BBHII%dx" % AhView.ICV_LEN)
_AH_PAYLOAD_LEN = AhView.HEADER_LEN // 4 - 2


def insert_ah(pkt: Packet, spi: int, seq: int, icv_key: bytes) -> None:
    """Splice an AH between the IPv4 header and the rest of the packet.

    The ICV is computed over the (immutable-field) IPv4 header and the
    payload that follows the AH, per RFC 4302's spirit.
    """
    l3 = pkt._ipv4_offset()
    buf = pkt.buf
    next_header = buf[l3 + 9]
    if next_header == PROTO_AH:
        raise ValueError("packet already carries an AH")
    try:
        header = _AH_HEADER.pack(next_header, _AH_PAYLOAD_LEN, 0, spi, seq)
    except struct.error:
        raise ValueError("AH SPI and sequence number must fit in 32 bits") from None
    rec = pkt.recorder
    if rec is not None:
        rec.record("add", Field.AH_HEADER, pkt.uid)
    splice_ah(pkt, header, l3)
    ip_end = l3 + (buf[l3] & 0x0F) * 4
    icv_at = ip_end + 12
    buf[icv_at : icv_at + AhView.ICV_LEN] = compute_icv(icv_key, _icv_scope(buf, l3, ip_end))
    # After the ICV: on a frame whose IHL reaches past the buffer the
    # AH lands inside the header the checksum covers.
    ipv4_header_checksum(buf, l3)


def refresh_icv(pkt: Packet, icv_key: bytes) -> None:
    """Restamp the AH's ICV over the packet's current bytes.

    Whoever rewrites what the ICV covers behind an existing AH (a second
    VPN hop re-encrypting the payload) must call this, or the peer's
    :func:`verify_ah` fails.
    """
    ah = pkt.ah
    ah.icv = compute_icv(icv_key, _icv_scope(pkt.buf, pkt.l3_offset, ah.offset))


def remove_ah(pkt: Packet, icv_key: bytes = b"", verify: bool = False) -> None:
    """Strip the AH, restoring the original protocol and lengths."""
    l3 = pkt._ipv4_offset()
    if pkt.buf[l3 + 9] != PROTO_AH:
        raise ValueError("packet carries no AH")
    rec = pkt.recorder
    if rec is not None:
        rec.record("remove", Field.AH_HEADER, pkt.uid)
    if verify and not verify_ah(pkt, icv_key):
        raise ValueError("AH integrity check failed")
    strip_ah(pkt, l3)
    ipv4_header_checksum(pkt.buf, l3)


def splice_ah(pkt: Packet, unit: bytes, l3: int) -> None:
    """Put the 24-byte AH ``unit`` behind the IPv4 header at ``l3``,
    replacing an AH already there.

    The splice lands behind the IPv4 header, so ``l3`` stays valid; the
    parse memo does not.  The checksum is left to the caller.
    """
    buf = pkt.buf
    ip_end = l3 + (buf[l3] & 0x0F) * 4
    pkt.memo_offsets = pkt.memo_key = None
    if buf[l3 + 9] == PROTO_AH:
        buf[ip_end : ip_end + AhView.HEADER_LEN] = unit
        return
    buf[ip_end:ip_end] = unit
    buf[l3 + 9] = PROTO_AH
    # Byte stores, not ``struct``: > 16 bits must stay a ValueError.
    length = ((buf[l3 + 2] << 8) | buf[l3 + 3]) + AhView.HEADER_LEN
    buf[l3 + 2] = length >> 8
    buf[l3 + 3] = length & 0xFF
    pkt.wire_len += AhView.HEADER_LEN


def strip_ah(pkt: Packet, l3: int) -> None:
    """Cut the AH behind the IPv4 header at ``l3``, whose protocol must
    read AH, restoring its next header.

    The cut lies behind the IPv4 header, so ``l3`` stays valid; the
    parse memo does not.  The checksum is left to the caller.
    """
    buf = pkt.buf
    ip_end = l3 + (buf[l3] & 0x0F) * 4
    next_header = buf[ip_end]
    pkt.memo_offsets = pkt.memo_key = None
    del buf[ip_end : ip_end + AhView.HEADER_LEN]
    buf[l3 + 9] = next_header
    # A negative length must stay a ValueError, as above.
    length = ((buf[l3 + 2] << 8) | buf[l3 + 3]) - AhView.HEADER_LEN
    buf[l3 + 2] = length >> 8
    buf[l3 + 3] = length & 0xFF
    pkt.wire_len -= AhView.HEADER_LEN


def verify_ah(pkt: Packet, icv_key: bytes) -> bool:
    """Recompute the ICV and compare it with the packet's in constant time."""
    ip = pkt.ipv4
    if ip.protocol != PROTO_AH:
        return False
    ip_end = ip.offset + ip.header_len
    ah = AhView(pkt.buf, ip_end)
    return hmac.compare_digest(
        ah.icv, compute_icv(icv_key, _icv_scope(pkt.buf, ip.offset, ip_end)))


def _icv_scope(buf: bytearray, l3: int, ip_end: int) -> bytearray:
    """Bytes covered by the ICV: src/dst IPs plus everything after the AH."""
    return buf[l3 + 12 : l3 + 20] + buf[ip_end + AhView.HEADER_LEN :]
