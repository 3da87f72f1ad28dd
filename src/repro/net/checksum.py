"""RFC 1071 Internet checksum."""

from __future__ import annotations

__all__ = ["internet_checksum", "ipv4_header_checksum"]


def internet_checksum(data: bytes) -> int:
    """Compute the 16-bit one's-complement Internet checksum of ``data``.

    Odd-length input is virtually padded with a trailing zero byte, as the
    RFC specifies.

    Since 2**16 = 1 (mod 0xFFFF), the end-around-carry sum of the 16-bit
    big-endian words is the whole buffer read as one integer, reduced
    modulo 0xFFFF -- except that carries fold a non-zero multiple of
    0xFFFF to 0xFFFF ("negative zero"), never to 0.
    """
    total = int.from_bytes(data, "big")
    if len(data) % 2:
        total <<= 8
    folded = total % 0xFFFF
    if folded == 0 and total:
        folded = 0xFFFF
    return 0xFFFF - folded


def ipv4_header_checksum(buf: bytearray, l3: int) -> None:
    """Store the checksum of the IPv4 header at ``l3`` in place.

    The header is IHL*4 bytes, or what ``buf`` holds of them; the caller
    guarantees the 20 fixed ones.  :func:`internet_checksum`'s fold,
    written out so a rewrite costs one call: the same odd-length padding
    (a header cut short at an odd byte) and the same negative zero.
    """
    buf[l3 + 10] = buf[l3 + 11] = 0
    header = buf[l3 : l3 + (buf[l3] & 0x0F) * 4]
    total = int.from_bytes(header, "big")
    if len(header) % 2:
        total <<= 8
    folded = total % 0xFFFF
    if folded == 0 and total:
        folded = 0xFFFF
    folded = 0xFFFF - folded
    buf[l3 + 10] = folded >> 8
    buf[l3 + 11] = folded & 0xFF
