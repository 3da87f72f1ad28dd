"""RFC 1071 Internet checksum and the TCP/UDP pseudo-header variant."""

from __future__ import annotations

__all__ = ["internet_checksum", "pseudo_header_checksum"]


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


def pseudo_header_checksum(
    src_ip: bytes, dst_ip: bytes, protocol: int, payload: bytes
) -> int:
    """Checksum over the IPv4 pseudo-header plus an L4 segment.

    Used for TCP (protocol 6) and UDP (protocol 17) checksums.  ``src_ip``
    and ``dst_ip`` are 4-byte network-order addresses; ``payload`` is the
    entire L4 header+data with its checksum field zeroed.
    """
    if len(src_ip) != 4 or len(dst_ip) != 4:
        raise ValueError("IPv4 addresses must be 4 bytes")
    if not 0 <= protocol <= 255:
        raise ValueError("protocol must be one byte")
    pseudo = bytes(src_ip) + bytes(dst_ip) + bytes(
        [0, protocol, (len(payload) >> 8) & 0xFF, len(payload) & 0xFF]
    )
    return internet_checksum(pseudo + bytes(payload))
