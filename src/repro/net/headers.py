"""Header views: zero-copy parse/serialize of Ethernet, IPv4, TCP, UDP, AH.

Each view class wraps a ``bytearray`` plus an offset and exposes header
fields as properties that read/write the underlying bytes in place --
mirroring how a DPDK NF manipulates an mbuf through header structs.  No
view ever copies packet data; mutating a view mutates the packet.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Union

from .checksum import internet_checksum, ipv4_header_checksum

__all__ = [
    "ETH_HEADER_LEN",
    "ETHERTYPE_IPV4",
    "ETHERTYPE_VLAN",
    "VLAN_TAG_LEN",
    "PROTO_TCP",
    "PROTO_UDP",
    "PROTO_AH",
    "EthernetView",
    "Ipv4View",
    "TcpView",
    "UdpView",
    "AhView",
    "ip_to_int",
    "int_to_ip",
    "mac_to_bytes",
    "bytes_to_mac",
]

ETH_HEADER_LEN = 14
ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_VLAN = 0x8100  # 802.1Q tag (TPID)
VLAN_TAG_LEN = 4  # TPID (2) + TCI (2), inserted after the MACs
PROTO_TCP = 6
PROTO_UDP = 17
PROTO_AH = 51  # IPsec Authentication Header

Buffer = Union[bytearray, memoryview]

_U32 = struct.Struct("!I")


@lru_cache(maxsize=256)  # NFs write a handful of configured addresses per packet
def ip_to_int(address: str) -> int:
    """Dotted-quad string -> host integer.  Raises on malformed input."""
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
    """Host integer -> dotted-quad string."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"IPv4 address out of range: {value!r}")
    return "%d.%d.%d.%d" % (value >> 24, (value >> 16) & 0xFF, (value >> 8) & 0xFF, value & 0xFF)


def mac_to_bytes(mac: str) -> bytes:
    """``"aa:bb:cc:dd:ee:ff"`` -> 6 raw bytes."""
    parts = mac.split(":")
    if len(parts) != 6:
        raise ValueError(f"malformed MAC address: {mac!r}")
    return bytes(int(p, 16) for p in parts)


def bytes_to_mac(raw: bytes) -> str:
    if len(raw) != 6:
        raise ValueError("MAC must be 6 bytes")
    return ":".join(f"{b:02x}" for b in raw)


class _View:
    """Common base: a window into ``buf`` starting at ``offset``."""

    HEADER_LEN = 0

    def __init__(self, buf: bytearray, offset: int = 0):
        if offset < 0 or offset + self.HEADER_LEN > len(buf):
            raise ValueError(
                f"{type(self).__name__} does not fit at offset {offset} "
                f"in a {len(buf)}-byte buffer"
            )
        self.buf = buf
        self.offset = offset

    def _u8(self, rel: int) -> int:
        return self.buf[self.offset + rel]

    def _set_u8(self, rel: int, value: int) -> None:
        if not 0 <= value <= 0xFF:
            raise ValueError("u8 out of range")
        self.buf[self.offset + rel] = value

    def _u16(self, rel: int) -> int:
        off = self.offset + rel
        return (self.buf[off] << 8) | self.buf[off + 1]

    def _set_u16(self, rel: int, value: int) -> None:
        if not 0 <= value <= 0xFFFF:
            raise ValueError("u16 out of range")
        off = self.offset + rel
        self.buf[off] = (value >> 8) & 0xFF
        self.buf[off + 1] = value & 0xFF

    def _u32(self, rel: int) -> int:
        off = self.offset + rel
        return _U32.unpack_from(self.buf, off)[0]

    def _set_u32(self, rel: int, value: int) -> None:
        if not 0 <= value <= 0xFFFFFFFF:
            raise ValueError("u32 out of range")
        _U32.pack_into(self.buf, self.offset + rel, value)

    def raw(self) -> bytes:
        """The header bytes as an immutable snapshot."""
        return bytes(self.buf[self.offset : self.offset + self.HEADER_LEN])


class EthernetView(_View):
    """14-byte Ethernet II header."""

    HEADER_LEN = ETH_HEADER_LEN

    @property
    def dst_mac(self) -> str:
        return bytes_to_mac(bytes(self.buf[self.offset : self.offset + 6]))

    @dst_mac.setter
    def dst_mac(self, mac: str) -> None:
        self.buf[self.offset : self.offset + 6] = mac_to_bytes(mac)

    @property
    def src_mac(self) -> str:
        return bytes_to_mac(bytes(self.buf[self.offset + 6 : self.offset + 12]))

    @src_mac.setter
    def src_mac(self, mac: str) -> None:
        self.buf[self.offset + 6 : self.offset + 12] = mac_to_bytes(mac)

    @property
    def ethertype(self) -> int:
        return self._u16(12)

    @ethertype.setter
    def ethertype(self, value: int) -> None:
        self._set_u16(12, value)


class Ipv4View(_View):
    """20-byte (no options) IPv4 header."""

    HEADER_LEN = 20

    @property
    def version(self) -> int:
        return self._u8(0) >> 4

    @property
    def ihl(self) -> int:
        return self._u8(0) & 0x0F

    @property
    def header_len(self) -> int:
        return (self.buf[self.offset] & 0x0F) * 4

    @property
    def dscp(self) -> int:
        return self._u8(1) >> 2

    @dscp.setter
    def dscp(self, value: int) -> None:
        if not 0 <= value <= 63:
            raise ValueError("DSCP is 6 bits")
        self._set_u8(1, (value << 2) | (self._u8(1) & 0x03))

    @property
    def total_length(self) -> int:
        return self._u16(2)

    @total_length.setter
    def total_length(self, value: int) -> None:
        self._set_u16(2, value)

    @property
    def identification(self) -> int:
        return self._u16(4)

    @identification.setter
    def identification(self, value: int) -> None:
        self._set_u16(4, value)

    @property
    def flags(self) -> int:
        """The 3-bit flags field (reserved, DF, MF)."""
        return self._u16(6) >> 13

    @property
    def more_fragments(self) -> bool:
        return bool(self._u16(6) & 0x2000)

    @more_fragments.setter
    def more_fragments(self, value: bool) -> None:
        word = self._u16(6)
        self._set_u16(6, (word | 0x2000) if value else (word & ~0x2000))

    @property
    def fragment_offset(self) -> int:
        """Fragment offset in 8-byte units (13 bits)."""
        return self._u16(6) & 0x1FFF

    @fragment_offset.setter
    def fragment_offset(self, value: int) -> None:
        if not 0 <= value <= 0x1FFF:
            raise ValueError("fragment offset is 13 bits")
        self._set_u16(6, (self._u16(6) & ~0x1FFF) | value)

    @property
    def ttl(self) -> int:
        return self._u8(8)

    @ttl.setter
    def ttl(self, value: int) -> None:
        self._set_u8(8, value)

    @property
    def protocol(self) -> int:
        return self._u8(9)

    @protocol.setter
    def protocol(self, value: int) -> None:
        self._set_u8(9, value)

    @property
    def checksum(self) -> int:
        return self._u16(10)

    @checksum.setter
    def checksum(self, value: int) -> None:
        self._set_u16(10, value)

    @property
    def src_ip(self) -> str:
        return int_to_ip(self._u32(12))

    @src_ip.setter
    def src_ip(self, address: str) -> None:
        self._set_u32(12, ip_to_int(address))

    @property
    def dst_ip(self) -> str:
        return int_to_ip(self._u32(16))

    @dst_ip.setter
    def dst_ip(self, address: str) -> None:
        self._set_u32(16, ip_to_int(address))

    @property
    def src_ip_int(self) -> int:
        return self._u32(12)

    @property
    def dst_ip_int(self) -> int:
        return self._u32(16)

    def update_checksum(self) -> None:
        """Recompute the header checksum over IHL*4 bytes."""
        ipv4_header_checksum(self.buf, self.offset)

    def verify_checksum(self) -> bool:
        buf, off = self.buf, self.offset
        return internet_checksum(buf[off : off + (buf[off] & 0x0F) * 4]) == 0


class TcpView(_View):
    """20-byte (no options) TCP header."""

    HEADER_LEN = 20

    FLAG_FIN = 0x01
    FLAG_SYN = 0x02
    FLAG_RST = 0x04
    FLAG_PSH = 0x08
    FLAG_ACK = 0x10

    @property
    def src_port(self) -> int:
        return self._u16(0)

    @src_port.setter
    def src_port(self, value: int) -> None:
        self._set_u16(0, value)

    @property
    def dst_port(self) -> int:
        return self._u16(2)

    @dst_port.setter
    def dst_port(self, value: int) -> None:
        self._set_u16(2, value)

    @property
    def seq(self) -> int:
        return self._u32(4)

    @seq.setter
    def seq(self, value: int) -> None:
        self._set_u32(4, value)

    @property
    def ack(self) -> int:
        return self._u32(8)

    @ack.setter
    def ack(self, value: int) -> None:
        self._set_u32(8, value)

    @property
    def data_offset(self) -> int:
        return self._u8(12) >> 4

    @property
    def header_len(self) -> int:
        return (self.buf[self.offset + 12] >> 4) * 4

    @property
    def flags(self) -> int:
        return self._u8(13)

    @flags.setter
    def flags(self, value: int) -> None:
        self._set_u8(13, value)

    @property
    def window(self) -> int:
        return self._u16(14)

    @window.setter
    def window(self, value: int) -> None:
        self._set_u16(14, value)

    @property
    def checksum(self) -> int:
        return self._u16(16)

    @checksum.setter
    def checksum(self, value: int) -> None:
        self._set_u16(16, value)


class UdpView(_View):
    """8-byte UDP header."""

    HEADER_LEN = 8

    @property
    def src_port(self) -> int:
        return self._u16(0)

    @src_port.setter
    def src_port(self, value: int) -> None:
        self._set_u16(0, value)

    @property
    def dst_port(self) -> int:
        return self._u16(2)

    @dst_port.setter
    def dst_port(self, value: int) -> None:
        self._set_u16(2, value)

    @property
    def length(self) -> int:
        return self._u16(4)

    @length.setter
    def length(self, value: int) -> None:
        self._set_u16(4, value)

    @property
    def checksum(self) -> int:
        return self._u16(6)

    @checksum.setter
    def checksum(self, value: int) -> None:
        self._set_u16(6, value)


class AhView(_View):
    """IPsec Authentication Header (RFC 4302) with a 12-byte ICV.

    Layout: next_header(1) payload_len(1) reserved(2) spi(4) seq(4)
    icv(12) -- 24 bytes total, which is what the paper's VPN NF (AH tunnel
    mode, §6.1) inserts.
    """

    ICV_LEN = 12
    HEADER_LEN = 12 + ICV_LEN

    @property
    def next_header(self) -> int:
        return self._u8(0)

    @next_header.setter
    def next_header(self, value: int) -> None:
        self._set_u8(0, value)

    @property
    def payload_len(self) -> int:
        """AH length field: header length in 32-bit words minus 2."""
        return self._u8(1)

    @payload_len.setter
    def payload_len(self, value: int) -> None:
        self._set_u8(1, value)

    @property
    def spi(self) -> int:
        return self._u32(4)

    @spi.setter
    def spi(self, value: int) -> None:
        self._set_u32(4, value)

    @property
    def seq(self) -> int:
        return self._u32(8)

    @seq.setter
    def seq(self, value: int) -> None:
        self._set_u32(8, value)

    @property
    def icv(self) -> bytes:
        return bytes(self.buf[self.offset + 12 : self.offset + 12 + self.ICV_LEN])

    @icv.setter
    def icv(self, value: bytes) -> None:
        if len(value) != self.ICV_LEN:
            raise ValueError(f"ICV must be {self.ICV_LEN} bytes")
        self.buf[self.offset + 12 : self.offset + 12 + self.ICV_LEN] = value
