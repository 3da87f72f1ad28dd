"""The packet object: buffer, metadata, header views, copy semantics.

A :class:`Packet` owns a mutable ``bytearray`` holding the full frame,
exactly like a DPDK mbuf, and exposes lazily-constructed header views.
NFs mutate packets *in place* through the views; the dataplane passes
:class:`Packet` references between rings (zero-copy, §5).

:class:`PacketMeta` is the 64-bit metadata word the NFP classifier tags
onto every packet (Fig. 5): 20-bit Match ID, 40-bit Packet ID and 4-bit
version.

Header-only copying (§4.2 OP#2) is implemented by
:meth:`Packet.header_copy`: only the first 64 bytes are copied and the
IPv4 total-length field of the copy is rewritten to cover just the copied
bytes, "ensuring that parallel NFs receive valid packets".
"""

from __future__ import annotations

import itertools
import struct
from typing import Optional

from .fields import Field
from .headers import (
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
    int_to_ip,
    ip_to_int,
)
from .recorder import (
    RecordingEthernetView,
    RecordingIpv4View,
    RecordingTcpView,
    RecordingUdpView,
)

__all__ = ["Packet", "PacketMeta", "build_packet", "FLOW_KEY",
           "decode_flow_key", "encode_flow_key", "HEADER_COPY_BYTES",
           "KEEP_MEMO", "FORGET_KEY", "FORGET_MEMO", "forget_memos"]

#: Bytes copied by header-only copying.  The paper fixes this at 64 B for
#: TCP traffic on Ethernet (Eth 14 + IPv4 20 + TCP 20 + slack).
HEADER_COPY_BYTES = 64

_serial = itertools.count(1)

#: The walk's constants, bound once as module names.  Ethertypes are
#: compared a byte at a time, so an untagged frame fails the 802.1Q test
#: on its first TPID byte.
_TPID_HI, _TPID_LO = ETHERTYPE_VLAN >> 8, ETHERTYPE_VLAN & 0xFF
_IPV4_HI, _IPV4_LO = ETHERTYPE_IPV4 >> 8, ETHERTYPE_IPV4 & 0xFF
_TAGGED_L3 = ETH_HEADER_LEN + VLAN_TAG_LEN
_IPV4_LEN = Ipv4View.HEADER_LEN
#: RFC 791's least IHL: the 20 fixed bytes, in 32-bit words.
_IHL_MIN = _IPV4_LEN // 4
_AH_LEN = AhView.HEADER_LEN
_TCP_LEN = TcpView.HEADER_LEN
#: RFC 9293's least data offset: the 20 fixed TCP bytes, in 32-bit words.
_DATA_OFFSET_MIN = _TCP_LEN // 4
_UDP_LEN = UdpView.HEADER_LEN
_PORTS = struct.Struct("!HH")
#: What ``five_tuple()`` reads, in the order a recorder hears of it.
_FIVE_TUPLE_FIELDS = (Field.SIP, Field.DIP, Field.SPORT, Field.DPORT)
#: The 13 bytes of :meth:`Packet.flow_key`: ``sip | dip | proto | sport
#: | dport``, network order; ``unpack`` gives the five as integers.
FLOW_KEY = struct.Struct("!IIBHH")
#: The same 13 bytes, packed with both addresses as one 8-byte slice of
#: the frame.  ``8s`` zero-pads a short slice: safe only because the
#: walk (``_flow``) guarantees all 20 fixed bytes of the IPv4 header.
_KEY = struct.Struct("!8sBHH")
#: The same 13 bytes as ``parse`` packs them: the ports as the frame's
#: 4 bytes, or ``b""`` zero-padded to ports 0.
_PARSED_KEY = struct.Struct("!8sB4s")
#: Bits of the first byte of the IPv4 flags/fragment-offset word (the
#: second is all offset): any of ``_FRAGMENT`` (MF, offset) or a non-zero
#: second byte marks a fragment; ``_LATER_FRAGMENT`` (offset) marks one
#: past the first, whose L4 bytes are payload, not a header.
_FRAGMENT = 0x3F
_LATER_FRAGMENT = 0x1F
#: What an NF's visit costs the packets it takes of their parse memo
#: (``CompiledGraph.forget``, from the NF's profile): nothing, the key,
#: or both parts.
KEEP_MEMO, FORGET_KEY, FORGET_MEMO = 0, 1, 2


def forget_memos(packets, rule: int) -> None:
    """Apply a visit's memo ``rule`` to ``packets``, before the visit."""
    if rule == FORGET_MEMO:
        for pkt in packets:
            pkt.memo_offsets = pkt.memo_key = None
    elif rule == FORGET_KEY:
        for pkt in packets:
            pkt.memo_key = None


def decode_flow_key(key: bytes) -> tuple:
    """``(src_ip, dst_ip, proto, sport, dport)`` of a flow key, the
    addresses dotted: the form :meth:`Packet.five_tuple` displays."""
    sip, dip, proto, sport, dport = FLOW_KEY.unpack(key)
    return int_to_ip(sip), int_to_ip(dip), proto, sport, dport


def encode_flow_key(five_tuple: tuple) -> bytes:
    """The flow key of ``(src_ip, dst_ip, proto, sport, dport)``."""
    src, dst, proto, sport, dport = five_tuple
    return FLOW_KEY.pack(ip_to_int(src), ip_to_int(dst), proto, sport, dport)


class PacketMeta:
    """The 64-bit NFP metadata word (Fig. 5).

    Fields
    ------
    mid:
        20-bit Match ID -- identifies the service graph the packet
        follows ("twenty bits of MID could express 1M service graphs").
    pid:
        40-bit Packet ID -- unique per packet within a flow, immutable,
        used by the merger agent's hash.
    version:
        4-bit copy version; the classifier tags the original as 1.
    """

    MID_BITS = 20
    PID_BITS = 40
    VERSION_BITS = 4

    __slots__ = ("mid", "pid", "version")

    def __init__(self, mid: int = 0, pid: int = 0, version: int = 1):
        if not 0 <= mid < (1 << self.MID_BITS):
            raise ValueError(f"MID out of 20-bit range: {mid}")
        if not 0 <= pid < (1 << self.PID_BITS):
            raise ValueError(f"PID out of 40-bit range: {pid}")
        if not 0 <= version < (1 << self.VERSION_BITS):
            raise ValueError(f"version out of 4-bit range: {version}")
        self.mid = mid
        self.pid = pid
        self.version = version

    def pack(self) -> int:
        """Encode as the 64-bit integer laid out as MID|PID|version."""
        return (self.mid << (self.PID_BITS + self.VERSION_BITS)) | (
            self.pid << self.VERSION_BITS
        ) | self.version

    @classmethod
    def unpack(cls, word: int) -> "PacketMeta":
        version = word & ((1 << cls.VERSION_BITS) - 1)
        pid = (word >> cls.VERSION_BITS) & ((1 << cls.PID_BITS) - 1)
        mid = word >> (cls.PID_BITS + cls.VERSION_BITS)
        return cls(mid=mid, pid=pid, version=version)

    def clone(self, version: Optional[int] = None) -> "PacketMeta":
        return PacketMeta(self.mid, self.pid, self.version if version is None else version)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PacketMeta)
            and (self.mid, self.pid, self.version)
            == (other.mid, other.pid, other.version)
        )

    def __hash__(self) -> int:
        return hash((self.mid, self.pid, self.version))

    def __repr__(self) -> str:
        return f"PacketMeta(mid={self.mid}, pid={self.pid}, version={self.version})"


class Packet:
    """A mutable network frame plus NFP metadata.

    ``wire_len`` records the original frame size even for header-only
    copies (whose buffer holds just 64 bytes), so throughput and resource
    accounting always see true wire sizes.
    """

    __slots__ = (
        "buf",
        "meta",
        "wire_len",
        "is_header_copy",
        "nil",
        "uid",
        "ingress_us",
        "recorder",
        "memo_offsets",
        "memo_key",
    )

    def __init__(
        self,
        buf: bytearray,
        meta: Optional[PacketMeta] = None,
        wire_len: Optional[int] = None,
        is_header_copy: bool = False,
    ):
        self.buf = buf
        self.meta = meta
        self.wire_len = len(buf) if wire_len is None else wire_len
        self.is_header_copy = is_header_copy
        #: A nil packet conveys a drop intention to the merger (§5.3).
        self.nil = False
        self.uid = next(_serial)
        #: Simulation timestamp of NIC arrival, for latency accounting.
        #: Negative until a traffic source or NIC stamps it: 0.0 is a
        #: legal model time and cannot also mean "unset".
        self.ingress_us = -1.0
        #: Opt-in :class:`~repro.net.recorder.AccessRecorder`.  ``None``
        #: (the default) keeps the hot path untouched: every view
        #: property pays exactly one ``is None`` check and returns the
        #: plain view classes.
        self.recorder = None
        #: The parse memo (see :meth:`parse`): ``(l3, l4 protocol, l4,
        #: payload offset)`` and ``(flow key, five-tuple fields read)``,
        #: each ``None`` until a classifier fills it.
        self.memo_offsets = None
        self.memo_key = None

    # ------------------------------------------------------------ views
    @property
    def has_vlan(self) -> bool:
        """Whether an 802.1Q tag sits between the MACs and the L3 header."""
        return self.l3_offset != ETH_HEADER_LEN

    @property
    def l3_offset(self) -> int:
        """Offset of the L3 header: 14, or 18 when 802.1Q-tagged."""
        buf = self.buf
        if len(buf) >= _TAGGED_L3 and buf[12] == _TPID_HI and buf[13] == _TPID_LO:
            return _TAGGED_L3
        return ETH_HEADER_LEN

    # The header stack is resolved here and nowhere else.  NFP's
    # classifier parses a packet once and tags it (§5), and so do both
    # planes' classifiers here: :meth:`parse`, one walk, fills the parse
    # memo -- ``memo_offsets`` (L3 offset, L4 protocol, L4 offset,
    # payload offset) and ``memo_key`` (the flow key and how many
    # five-tuple fields its walk read) -- and every question below
    # returns from it; header and full copies inherit it.  Views and NFs
    # write bytes straight into ``buf``, so the memo is trusted only while
    # nothing can have moved what it records.  It is dropped in three
    # places:
    # - the unit movers: every primitive that moves header bytes
    #   (``splice_ah`` / ``strip_ah``, ``splice_vlan`` / ``strip_vlan``,
    #   the VXLAN and NSH stacks) drops both parts of the packet it takes
    #   as it moves them -- for the NF that adds or removes the unit and
    #   for the merge's ``add`` / ``remove`` alike;
    # - the key-writer rule: before an NF's visit, a plane applies the
    #   rule the compiled graph derives from the NF's profile
    #   (``CompiledGraph.forget``): a SIP/DIP/SPORT/DPORT writer's packet
    #   loses the key, a WHOLE_PACKET writer's both parts;
    # - the merge and egress: a merge that ran a step drops the key, and
    #   a plane's outputs leave their memo behind (the functional plane's
    #   drops too), so no caller holds one its own writes could outdate.
    # A packet with no memo (the sequential reference's, a writer NF's,
    # a frame the walk refuses) takes the walks below, the miss path:
    # stateless, every index bounds-checked; a frame that does not parse
    # raises ``ValueError``, the one exception callers catch.
    #
    # Which walk answers which question, each in as few frames as it can:
    # - ``_ipv4_offset``, L3 only: the IPv4 views, ``has_ah`` / ``ah`` and
    #   the merge's IPv4 anchor (a frame whose AH is cut short still has
    #   an IPv4 header);
    # - ``_resolve``, L3 through an AH to L4: the protocol, the L4 views,
    #   the NAT; ``_header_span`` (payload, header copy) calls it once
    #   and bounds the TCP header itself;
    # - ``_flow``, L3 through L4 to the ports: the load balancer's
    #   rewrite, ``five_tuple``, a key the memo does not hold; it takes
    #   its offsets from the memo when there is one and reads the ports
    #   itself.
    # So the L3 checks are written four times (``parse`` too), each a
    # frame saved per question; the every-prefix differential properties
    # (``test_packet_properties.py``, ``test_flow_bytes_differential.py``)
    # hold them all to the view chain.
    def _ipv4_offset(self) -> int:
        """Offset of the IPv4 header, all 20 fixed bytes of it in ``buf``
        and an IHL of at least 5, so its L4 bytes start past them."""
        memo = self.memo_offsets
        if memo is not None:
            return memo[0]
        buf = self.buf
        size = len(buf)
        if size >= _TAGGED_L3 and buf[12] == _TPID_HI and buf[13] == _TPID_LO:
            off = _TAGGED_L3
        else:
            off = ETH_HEADER_LEN
        # The effective ethertype sits just before the L3 header: at 12
        # when untagged, at 16 (the inner ethertype) when 802.1Q-tagged.
        if size < off or buf[off - 2] != _IPV4_HI or buf[off - 1] != _IPV4_LO:
            raise ValueError("packet is not IPv4")
        if off + _IPV4_LEN > size:
            raise ValueError(f"IPv4 header cut short at offset {off}")
        if (buf[off] & 0x0F) < _IHL_MIN:
            raise ValueError(f"IPv4 IHL below {_IHL_MIN} at offset {off}")
        return off

    def _resolve(self) -> tuple:
        """``(l3_offset, l4_protocol, l4_offset)``, looking through an AH:
        :meth:`_ipv4_offset`'s checks, then the AH's bounds."""
        memo = self.memo_offsets
        if memo is not None:
            return memo[:3]
        buf = self.buf
        size = len(buf)
        if size >= _TAGGED_L3 and buf[12] == _TPID_HI and buf[13] == _TPID_LO:
            l3 = _TAGGED_L3
        else:
            l3 = ETH_HEADER_LEN
        if size < l3 or buf[l3 - 2] != _IPV4_HI or buf[l3 - 1] != _IPV4_LO:
            raise ValueError("packet is not IPv4")
        if l3 + _IPV4_LEN > size:
            raise ValueError(f"IPv4 header cut short at offset {l3}")
        ihl = buf[l3] & 0x0F
        if ihl < _IHL_MIN:
            raise ValueError(f"IPv4 IHL below {_IHL_MIN} at offset {l3}")
        l4 = l3 + ihl * 4
        proto = buf[l3 + 9]
        if proto == PROTO_AH:
            if l4 + _AH_LEN > size:
                raise ValueError(f"AH cut short at offset {l4}")
            proto = buf[l4]
            l4 += _AH_LEN
        return l3, proto, l4

    def _header_span(self) -> tuple:
        """``(l3_offset, payload_offset)``: the header stack above Ethernet.

        A TCP data offset below 5 words is refused, as an IHL below 5 is:
        the "payload" would start inside the TCP header, at or before the
        data-offset byte itself.
        """
        memo = self.memo_offsets
        if memo is not None:
            return memo[0], memo[3]
        l3, proto, end = self._resolve()
        if proto == PROTO_TCP:
            buf = self.buf
            if end + _TCP_LEN > len(buf):
                raise ValueError(f"TCP header cut short at offset {end}")
            words = buf[end + 12] >> 4
            if words < _DATA_OFFSET_MIN:
                raise ValueError(
                    f"TCP data offset below {_DATA_OFFSET_MIN} at offset {end}")
            end += words * 4
        elif proto == PROTO_UDP:
            end += _UDP_LEN
        return l3, end

    @property
    def eth(self) -> EthernetView:
        rec = self.recorder
        if rec is None:
            return EthernetView(self.buf, 0)
        return RecordingEthernetView(self.buf, 0)._bind(rec, self.uid)

    @property
    def ipv4(self) -> Ipv4View:
        off = self._ipv4_offset()
        rec = self.recorder
        if rec is None:
            return Ipv4View(self.buf, off)
        return RecordingIpv4View(self.buf, off)._bind(rec, self.uid)

    @property
    def has_ah(self) -> bool:
        try:
            return self.buf[self._ipv4_offset() + 9] == PROTO_AH
        except ValueError:
            return False

    @property
    def ah(self) -> AhView:
        l3 = self._ipv4_offset()
        if self.buf[l3 + 9] != PROTO_AH:
            raise ValueError("packet has no Authentication Header")
        return AhView(self.buf, l3 + (self.buf[l3] & 0x0F) * 4)

    @property
    def l4_protocol(self) -> int:
        """The transport protocol, looking through an AH if present."""
        return self._resolve()[1]

    def _l4_view(self, proto: int, name: str, plain, recording):
        _, found, l4 = self._resolve()
        if found != proto:
            raise ValueError(f"packet is not {name}")
        rec = self.recorder
        if rec is None:
            return plain(self.buf, l4)
        return recording(self.buf, l4)._bind(rec, self.uid)

    @property
    def tcp(self) -> TcpView:
        return self._l4_view(PROTO_TCP, "TCP", TcpView, RecordingTcpView)

    @property
    def udp(self) -> UdpView:
        return self._l4_view(PROTO_UDP, "UDP", UdpView, RecordingUdpView)

    @property
    def payload_offset(self) -> int:
        return self._header_span()[1]

    @property
    def payload(self) -> bytes:
        rec = self.recorder
        if rec is not None:
            rec.record("read", Field.PAYLOAD, self.uid)
        return bytes(self.buf[self._header_span()[1] :])

    def set_payload(self, data: bytes) -> None:
        """Replace the L4 payload in place (same length only).

        NFs that change payload length must use add/remove header
        primitives instead, so that length bookkeeping stays consistent.
        """
        rec = self.recorder
        if rec is not None:
            rec.record("write", Field.PAYLOAD, self.uid)
        start = self._header_span()[1]
        if len(data) != len(self.buf) - start:
            raise ValueError("set_payload must preserve length")
        self.buf[start:] = data

    def _flow(self, portless: int = 0) -> tuple:
        """``(buf, l3, proto, sport, dport)``: the walk under a flow key,
        :meth:`_resolve`'s checks inline, or its offsets from the memo.

        TCP and UDP ports are read (and their header bounds-checked);
        any other protocol has ports 0.  So does, for a non-zero
        ``portless``, a frame with a bit of ``portless`` set in the first
        byte of its IPv4 flags/fragment-offset word, or a non-zero second
        byte: its L4 bytes are not read.  A recorder hears the addresses,
        then the ports when they were read.
        """
        buf = self.buf
        size = len(buf)
        memo = self.memo_offsets
        if memo is not None:
            l3, proto, l4, _ = memo
        else:
            if size >= _TAGGED_L3 and buf[12] == _TPID_HI and buf[13] == _TPID_LO:
                l3 = _TAGGED_L3
            else:
                l3 = ETH_HEADER_LEN
            if size < l3 or buf[l3 - 2] != _IPV4_HI or buf[l3 - 1] != _IPV4_LO:
                raise ValueError("packet is not IPv4")
            if l3 + _IPV4_LEN > size:
                raise ValueError(f"IPv4 header cut short at offset {l3}")
            ihl = buf[l3] & 0x0F
            if ihl < _IHL_MIN:
                raise ValueError(f"IPv4 IHL below {_IHL_MIN} at offset {l3}")
            l4 = l3 + ihl * 4
            proto = buf[l3 + 9]
            if proto == PROTO_AH:
                if l4 + _AH_LEN > size:
                    raise ValueError(f"AH cut short at offset {l4}")
                proto = buf[l4]
                l4 += _AH_LEN
        if (proto == PROTO_TCP or proto == PROTO_UDP) and not (portless and (
                buf[l3 + 6] & portless or buf[l3 + 7])):
            if l4 + (_TCP_LEN if proto == PROTO_TCP else _UDP_LEN) > size:
                raise ValueError(f"L4 header cut short at offset {l4}")
            sport, dport = _PORTS.unpack_from(buf, l4)
            reads = 4
        else:
            sport = dport = 0
            reads = 2  # the addresses only
        if self.recorder is not None:
            self._heard(reads)
        return buf, l3, proto, sport, dport

    def _heard(self, reads: int) -> None:
        """Tell the recorder what a key's walk read: the addresses, then
        the ports when ``reads`` is 4."""
        rec, uid = self.recorder, self.uid
        for field in _FIVE_TUPLE_FIELDS[:reads]:
            rec.record("read", field, uid)

    def parse(self) -> Optional[bytes]:
        """The classifier's one walk: fill the parse memo and return
        :meth:`flow_key`, or ``None`` for a frame with no key.

        ``memo_offsets`` is filled when :meth:`_header_span` would
        answer, ``memo_key`` when :meth:`flow_key` would; a part the
        frame refuses stays ``None``, so that question takes its walk and
        raises as before.  A recorder hears nothing: classifying is no
        NF's read.
        """
        self.memo_offsets = self.memo_key = None
        buf = self.buf
        size = len(buf)
        if size >= _TAGGED_L3 and buf[12] == _TPID_HI and buf[13] == _TPID_LO:
            l3 = _TAGGED_L3
        else:
            l3 = ETH_HEADER_LEN
        if (l3 + _IPV4_LEN > size or buf[l3 - 2] != _IPV4_HI
                or buf[l3 - 1] != _IPV4_LO or (buf[l3] & 0x0F) < _IHL_MIN):
            return None
        l4 = l3 + (buf[l3] & 0x0F) * 4
        proto = buf[l3 + 9]
        if proto == PROTO_AH:
            if l4 + _AH_LEN > size:
                return None
            proto = buf[l4]
            l4 += _AH_LEN
        if proto == PROTO_TCP:
            words = buf[l4 + 12] >> 4 if l4 + _TCP_LEN <= size else 0
            if words >= _DATA_OFFSET_MIN:
                self.memo_offsets = (l3, proto, l4, l4 + words * 4)
        else:
            self.memo_offsets = (l3, proto, l4,
                                 l4 + _UDP_LEN if proto == PROTO_UDP else l4)
        if (proto == PROTO_TCP or proto == PROTO_UDP) and not (
                buf[l3 + 6] & _FRAGMENT or buf[l3 + 7]):
            if l4 + (_TCP_LEN if proto == PROTO_TCP else _UDP_LEN) > size:
                return None
            ports, reads = buf[l4 : l4 + 4], 4
        else:
            ports, reads = b"", 2
        key = _PARSED_KEY.pack(buf[l3 + 12 : l3 + 20], proto, ports)
        self.memo_key = (key, reads)
        return key

    def five_tuple(self) -> tuple:
        """(src_ip, dst_ip, proto, sport, dport), for display: the
        dataplane keys on :meth:`flow_key`."""
        buf, l3, proto, sport, dport = self._flow()
        return (
            "%d.%d.%d.%d" % (buf[l3 + 12], buf[l3 + 13], buf[l3 + 14], buf[l3 + 15]),
            "%d.%d.%d.%d" % (buf[l3 + 16], buf[l3 + 17], buf[l3 + 18], buf[l3 + 19]),
            proto, sport, dport,
        )

    def flow_key(self) -> bytes:
        """The flow's 13 bytes, ``sip | dip | proto | sport | dport``
        (:data:`FLOW_KEY`): the one key of the RSS split, the classifier,
        the control plane and every per-flow NF table.

        Ports are 0 for non-TCP/UDP traffic and for every fragment, so
        all fragments of one datagram share a key.  Raises ``ValueError``
        on a frame that is not IPv4 or is cut short.  Returned from the
        memo when it holds the key; a recorder hears the same reads.
        """
        memo = self.memo_key
        if memo is None:
            buf, l3, proto, sport, dport = self._flow(_FRAGMENT)
            return _KEY.pack(buf[l3 + 12 : l3 + 20], proto, sport, dport)
        if self.recorder is not None:
            self._heard(memo[1])
        return memo[0]

    def port_key(self) -> bytes:
        """:meth:`flow_key` with the ports this frame carries, the key
        port *policy* reads (the firewall ACL, IDS constraints,
        conntrack): a first fragment (offset 0, MF set) has its real
        ports, since its L4 header is there; a later fragment has ports
        0, as iptables matches no ports on one.  Same layout and errors.
        """
        memo = self.memo_key
        # A memoised key that read the ports is no fragment's: it is
        # this frame's port key too.
        if memo is None or memo[1] != 4:
            buf, l3, proto, sport, dport = self._flow(_LATER_FRAGMENT)
            return _KEY.pack(buf[l3 + 12 : l3 + 20], proto, sport, dport)
        if self.recorder is not None:
            self._heard(4)
        return memo[0]

    # ------------------------------------------------------------ copies
    def full_copy(self, version: int) -> "Packet":
        """Deep copy of the whole frame, tagged with a new version."""
        meta = self.meta
        copy = Packet(bytearray(self.buf),
                      meta.clone(version) if meta else None, self.wire_len)
        copy.ingress_us = self.ingress_us
        copy.memo_offsets = self.memo_offsets
        copy.memo_key = self.memo_key
        rec = self.recorder
        if rec is not None:
            copy.recorder = rec
            rec.record("copy-full", None, self.uid)
        return copy

    def header_copy(self, version: int, nbytes: int = HEADER_COPY_BYTES) -> "Packet":
        """Header-only copy (§4.2 OP#2).

        Copies the first ``nbytes`` bytes (64 by default, the paper's
        figure for plain TCP on Ethernet) and rewrites the copy's IPv4
        total-length field to the length of the copied IP portion, so
        the copy is a self-consistent (payload-less) packet.  When the
        header stack is taller than ``nbytes`` (e.g. an AH has been
        inserted), the copy grows to cover it -- parallel NFs must
        always receive valid headers.
        """
        buf = self.buf
        size = len(buf)
        memo = self.memo_offsets
        try:
            l3, end = self._header_span()
            if end > nbytes:
                nbytes = end
        except ValueError:
            # The stack does not parse: keep the requested size (the 20
            # bytes of an IPv4 header that are there still get a length).
            l3 = self.l3_offset
            if size < l3 or buf[l3 - 2] != _IPV4_HI or buf[l3 - 1] != _IPV4_LO:
                l3 = size
        if nbytes > size:
            nbytes = size
        head = buf[:nbytes]
        if nbytes >= l3 + _IPV4_LEN:
            # Byte stores, not ``struct``: > 16 bits must stay a ValueError.
            head[l3 + 2] = (nbytes - l3) >> 8
            head[l3 + 3] = (nbytes - l3) & 0xFF
        meta = self.meta
        copy = Packet(head, meta.clone(version) if meta else None,
                      self.wire_len, True)
        copy.ingress_us = self.ingress_us
        if memo is not None:
            # The copy holds the whole header stack, or the whole frame:
            # every walk answers on it as on this packet.
            copy.memo_offsets = memo
            copy.memo_key = self.memo_key
        rec = self.recorder
        if rec is not None:
            copy.recorder = rec
            rec.record("copy-header", None, self.uid)
        return copy

    def make_nil(self) -> "Packet":
        """A nil packet carrying this packet's metadata (drop intent)."""
        nil = Packet(bytearray(0), meta=self.meta, wire_len=0)
        nil.nil = True
        nil.ingress_us = self.ingress_us
        return nil

    def __len__(self) -> int:
        return len(self.buf)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "nil" if self.nil else f"{len(self.buf)}B"
        return f"<Packet #{self.uid} {kind} meta={self.meta}>"


def build_packet(
    src_ip: str = "10.0.0.1",
    dst_ip: str = "10.0.0.2",
    src_port: int = 10000,
    dst_port: int = 80,
    protocol: int = PROTO_TCP,
    payload: bytes = b"",
    size: Optional[int] = None,
    ttl: int = 64,
    src_mac: str = "02:00:00:00:00:01",
    dst_mac: str = "02:00:00:00:00:02",
    identification: Optional[int] = None,
) -> Packet:
    """Construct a valid Ethernet/IPv4/TCP-or-UDP frame.

    If ``size`` is given, the payload is zero-padded (or the call fails if
    headers alone exceed ``size``).  Checksums are filled in.
    """
    l4_len = TcpView.HEADER_LEN if protocol == PROTO_TCP else UdpView.HEADER_LEN
    header_len = ETH_HEADER_LEN + Ipv4View.HEADER_LEN + l4_len
    if size is not None:
        if size < header_len:
            raise ValueError(
                f"requested size {size} smaller than headers ({header_len} B)"
            )
        pad = size - header_len - len(payload)
        if pad < 0:
            raise ValueError("payload does not fit in requested size")
        payload = payload + bytes(pad)
    buf = bytearray(header_len + len(payload))
    pkt = Packet(buf)

    eth = pkt.eth
    eth.src_mac = src_mac
    eth.dst_mac = dst_mac
    eth.ethertype = ETHERTYPE_IPV4

    ip = Ipv4View(buf, ETH_HEADER_LEN)
    buf[ETH_HEADER_LEN] = 0x45  # version 4, IHL 5
    ip.total_length = len(buf) - ETH_HEADER_LEN
    ip.ttl = ttl
    ip.protocol = protocol
    ip.src_ip = src_ip
    ip.dst_ip = dst_ip
    if identification is None:
        # Auto idents derive from the (monotonic) packet uid and wrap
        # naturally: nothing in the dataplane keys on them.
        ip.identification = pkt.uid & 0xFFFF
    else:
        # Explicit idents are caller-managed keys (repro.check matches
        # outputs per-ident): a wrapped value would silently alias two
        # packets, so fail loudly instead of masking it.
        if not 0 <= identification <= 0xFFFF:
            raise ValueError(
                f"identification {identification} outside the 16-bit field; "
                "explicit idents must be pre-wrapped by the caller"
            )
        ip.identification = identification

    l4_off = ETH_HEADER_LEN + Ipv4View.HEADER_LEN
    if protocol == PROTO_TCP:
        buf[l4_off + 12] = 5 << 4  # data offset = 5 words
        tcp = TcpView(buf, l4_off)
        tcp.src_port = src_port
        tcp.dst_port = dst_port
        tcp.window = 65535
        buf[l4_off + TcpView.HEADER_LEN :] = payload
    elif protocol == PROTO_UDP:
        udp = UdpView(buf, l4_off)
        udp.src_port = src_port
        udp.dst_port = dst_port
        udp.length = UdpView.HEADER_LEN + len(payload)
        buf[l4_off + UdpView.HEADER_LEN :] = payload
    else:
        raise ValueError(f"unsupported L4 protocol: {protocol}")

    ip.update_checksum()
    return pkt
