"""Named packet fields: the vocabulary shared by action profiles and MOs.

The orchestrator reasons about NF behaviour at the granularity of named
fields (Table 2's columns: SIP, DIP, SPORT, DPORT, Payload, ...) and the
merger's merging operations reference the same names (e.g.
``modify(v1.SIP, v2.SIP)``).  This module defines the :class:`Field`
enumeration and byte-level accessors so a merge operation can be executed
on real packet buffers.

The paper notes its MO implementation is protocol dependent (§5.3); ours
is too -- IPv4/TCP/UDP plus the AH header the VPN NF adds.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict

from .headers import PROTO_TCP, PROTO_UDP

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .packet import Packet

__all__ = ["Field", "read_field", "write_field", "FIELD_ACCESSORS", "FIELD_BYTES"]


class Field(enum.Enum):
    """Packet fields an NF can read or write (Table 2 columns + extras)."""

    SIP = "sip"
    DIP = "dip"
    SPORT = "sport"
    DPORT = "dport"
    TTL = "ttl"
    DSCP = "dscp"
    PAYLOAD = "payload"
    #: Ethernet source/destination MAC (L2 NFs: MAC swap, learning switch).
    SMAC = "smac"
    DMAC = "dmac"
    #: Structural unit: the IPsec Authentication Header (added/removed).
    AH_HEADER = "ah"
    #: Structural unit: the 802.1Q VLAN tag (4 bytes after the MACs).
    VLAN_HEADER = "vlan"
    #: Structural unit: a VXLAN outer stack (Eth+IPv4+UDP+VXLAN, 50 bytes).
    VXLAN_HEADER = "vxlan"
    #: Wildcard used by profiles meaning "the entire packet" (e.g. an NF
    #: that checksums or compresses everything).
    WHOLE_PACKET = "*"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, token: str) -> "Field":
        token = token.strip().lower()
        for member in cls:
            if member.value == token:
                return member
        raise ValueError(f"unknown packet field: {token!r}")

    def overlaps(self, other: "Field") -> bool:
        """Whether two fields can denote the same bytes.

        ``WHOLE_PACKET`` overlaps everything; otherwise only identical
        fields overlap (our fields are disjoint byte ranges).
        """
        if self is Field.WHOLE_PACKET or other is Field.WHOLE_PACKET:
            return True
        return self is other

    @property
    def is_encapsulating(self) -> bool:
        """Whether adding/removing this unit re-homes every accessor.

        AH sits between IP and L4 and the VLAN tag between the MACs and
        the ethertype; the accessors parse through both, so the other
        fields keep their referents.  A VXLAN outer stack instead puts a
        whole new Eth/IPv4/UDP stack in front: after encap, ``sip``
        *means* the outer source address.  No copy-and-merge discipline
        can reconcile that with a parallel NF's view of the inner
        packet, so Algorithm 1 refuses to parallelize across it.
        """
        return self is Field.VXLAN_HEADER


def _l4(pkt: Packet):
    proto = pkt.l4_protocol
    if proto == PROTO_TCP:
        return pkt.tcp
    if proto == PROTO_UDP:
        return pkt.udp
    raise ValueError("packet has no TCP/UDP ports")


def _read_sip(pkt: Packet):
    return pkt.ipv4.src_ip


def _write_sip(pkt: Packet, value) -> None:
    pkt.ipv4.src_ip = value


def _read_dip(pkt: Packet):
    return pkt.ipv4.dst_ip


def _write_dip(pkt: Packet, value) -> None:
    pkt.ipv4.dst_ip = value


def _read_sport(pkt: Packet):
    return _l4(pkt).src_port


def _write_sport(pkt: Packet, value) -> None:
    _l4(pkt).src_port = value


def _read_dport(pkt: Packet):
    return _l4(pkt).dst_port


def _write_dport(pkt: Packet, value) -> None:
    _l4(pkt).dst_port = value


def _read_ttl(pkt: Packet):
    return pkt.ipv4.ttl


def _write_ttl(pkt: Packet, value) -> None:
    pkt.ipv4.ttl = value


def _read_dscp(pkt: Packet):
    return pkt.ipv4.dscp


def _write_dscp(pkt: Packet, value) -> None:
    pkt.ipv4.dscp = value


def _read_payload(pkt: Packet):
    return pkt.payload


def _write_payload(pkt: Packet, value) -> None:
    pkt.set_payload(value)


def _read_smac(pkt: Packet):
    return pkt.eth.src_mac


def _write_smac(pkt: Packet, value) -> None:
    pkt.eth.src_mac = value


def _read_dmac(pkt: Packet):
    return pkt.eth.dst_mac


def _write_dmac(pkt: Packet, value) -> None:
    pkt.eth.dst_mac = value


#: Field -> (reader, writer) over a live packet.
FIELD_ACCESSORS: Dict[Field, tuple] = {
    Field.SIP: (_read_sip, _write_sip),
    Field.DIP: (_read_dip, _write_dip),
    Field.SPORT: (_read_sport, _write_sport),
    Field.DPORT: (_read_dport, _write_dport),
    Field.TTL: (_read_ttl, _write_ttl),
    Field.DSCP: (_read_dscp, _write_dscp),
    Field.PAYLOAD: (_read_payload, _write_payload),
    Field.SMAC: (_read_smac, _write_smac),
    Field.DMAC: (_read_dmac, _write_dmac),
}


def read_field(pkt: Packet, field: Field):
    """Read a named field from a packet."""
    try:
        reader, _ = FIELD_ACCESSORS[field]
    except KeyError:
        raise ValueError(f"field {field} is not value-addressable") from None
    return reader(pkt)


def write_field(pkt: Packet, field: Field, value) -> None:
    """Write a named field on a packet (in place)."""
    try:
        _, writer = FIELD_ACCESSORS[field]
    except KeyError:
        raise ValueError(f"field {field} is not value-addressable") from None
    writer(pkt, value)


#: Field -> (anchor, offset, length) for the fields that are whole bytes
#: at a fixed place in a header -- not DSCP (six bits) or PAYLOAD.  The
#: merge plan (:class:`repro.dataplane.merging.MergePlan`) compiles a
#: ``modify`` of one into a byte-range copy under its anchor.
FIELD_BYTES: Dict[Field, tuple] = {
    Field.SIP: ("ipv4", 12, 4),
    Field.DIP: ("ipv4", 16, 4),
    Field.TTL: ("ipv4", 8, 1),
    Field.SPORT: ("l4", 0, 2),
    Field.DPORT: ("l4", 2, 2),
    Field.DMAC: ("eth", 0, 6),
    Field.SMAC: ("eth", 6, 6),
}
