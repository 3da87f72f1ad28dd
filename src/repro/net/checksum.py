"""RFC 1071 Internet checksum."""

from __future__ import annotations

__all__ = ["internet_checksum"]


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

