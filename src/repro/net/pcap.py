"""Libpcap trace I/O: export/import packet streams.

Implements the classic pcap container (magic ``0xA1B2C3D4``, microsecond
timestamps, LINKTYPE_ETHERNET) so simulated traffic can be written out
and inspected with Wireshark/tcpdump, and captured traces can be
replayed through service graphs.

Only the original 24-byte-global-header format is produced; both byte
orders and both microsecond/nanosecond variants are accepted on read.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterable, List, Tuple, Union

from .packet import Packet

__all__ = ["write_pcap", "read_pcap", "PcapError"]

_MAGIC_US = 0xA1B2C3D4
_MAGIC_NS = 0xA1B23C4D
_LINKTYPE_ETHERNET = 1
_GLOBAL = struct.Struct("<IHHiIII")
_RECORD = struct.Struct("<IIII")


class PcapError(ValueError):
    """Malformed pcap input."""


def write_pcap(
    path: Union[str, Path, BinaryIO],
    packets: Iterable[Packet],
) -> int:
    """Write packets (with their ``ingress_us`` timestamps) to a pcap
    file, every frame whole under a snap length of 65,535 bytes.

    Returns the number of records written.
    """
    own = isinstance(path, (str, Path))
    handle: BinaryIO = open(path, "wb") if own else path  # type: ignore[arg-type]
    count = 0
    try:
        handle.write(
            _GLOBAL.pack(_MAGIC_US, 2, 4, 0, 0, 65535, _LINKTYPE_ETHERNET)
        )
        for pkt in packets:
            if pkt.nil:
                continue
            data = bytes(pkt.buf)
            ts = max(0.0, pkt.ingress_us)
            seconds = int(ts // 1_000_000)
            micros = int(ts % 1_000_000)
            handle.write(_RECORD.pack(seconds, micros, len(data), len(pkt.buf)))
            handle.write(data)
            count += 1
    finally:
        if own:
            handle.close()
    return count


def read_pcap(
    path: Union[str, Path, BinaryIO],
) -> List[Tuple[float, Packet]]:
    """Read a pcap file into ``(timestamp_us, Packet)`` pairs."""
    own = isinstance(path, (str, Path))
    handle: BinaryIO = open(path, "rb") if own else path  # type: ignore[arg-type]
    try:
        header = handle.read(_GLOBAL.size)
        if len(header) < _GLOBAL.size:
            raise PcapError("truncated pcap global header")
        magic = struct.unpack("<I", header[:4])[0]
        if magic in (_MAGIC_US, _MAGIC_NS):
            endian = "<"
        else:
            magic_be = struct.unpack(">I", header[:4])[0]
            if magic_be not in (_MAGIC_US, _MAGIC_NS):
                raise PcapError(f"bad pcap magic: {magic:#x}")
            endian = ">"
            magic = magic_be
        nanos = magic == _MAGIC_NS
        record = struct.Struct(endian + "IIII")

        out: List[Tuple[float, Packet]] = []
        while True:
            raw = handle.read(record.size)
            if not raw:
                break
            if len(raw) < record.size:
                raise PcapError("truncated pcap record header")
            seconds, sub, caplen, origlen = record.unpack(raw)
            data = handle.read(caplen)
            if len(data) < caplen:
                raise PcapError("truncated pcap record body")
            micros = sub / 1000.0 if nanos else float(sub)
            timestamp_us = seconds * 1_000_000 + micros
            pkt = Packet(bytearray(data), wire_len=origlen)
            pkt.ingress_us = timestamp_us
            out.append((timestamp_us, pkt))
        return out
    finally:
        if own:
            handle.close()
