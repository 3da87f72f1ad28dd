"""Byte-level packet substrate: headers, packets, fields, LPM, crypto.

NFs operate on real packet bytes through this package, which is what lets
the test suite verify the paper's *result correctness principle* (§4.1)
functionally: the merged output of a parallel service graph must be
byte-identical to sequential execution.
"""

from .checksum import internet_checksum
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
    bytes_to_mac,
    int_to_ip,
    ip_to_int,
    mac_to_bytes,
)
from .packet import HEADER_COPY_BYTES, Packet, PacketMeta, build_packet
from .fields import Field, read_field, write_field
from .recorder import AccessEvent, AccessRecorder, RECORD_VERBS
from .lpm import LpmTable
from .crypto import Aes128, aes_ctr_keystreams, aes_ctr_transform, compute_icv
from .ah import insert_ah, refresh_icv, remove_ah, verify_ah
from .encap import (
    VXLAN_HEADER_LEN,
    VXLAN_OUTER_LEN,
    VXLAN_PORT,
    insert_vlan,
    is_vxlan,
    remove_vlan,
    vlan_tci,
    vxlan_decap,
    vxlan_encap,
    vxlan_vni,
)
from .pcap import PcapError, read_pcap, write_pcap

__all__ = [
    "internet_checksum",
    "ETH_HEADER_LEN",
    "ETHERTYPE_IPV4",
    "PROTO_AH",
    "PROTO_TCP",
    "PROTO_UDP",
    "EthernetView",
    "Ipv4View",
    "TcpView",
    "UdpView",
    "AhView",
    "ip_to_int",
    "int_to_ip",
    "mac_to_bytes",
    "bytes_to_mac",
    "Packet",
    "PacketMeta",
    "build_packet",
    "HEADER_COPY_BYTES",
    "Field",
    "read_field",
    "write_field",
    "LpmTable",
    "Aes128",
    "aes_ctr_keystreams",
    "aes_ctr_transform",
    "compute_icv",
    "insert_ah",
    "refresh_icv",
    "remove_ah",
    "verify_ah",
    "ETHERTYPE_VLAN",
    "VLAN_TAG_LEN",
    "VXLAN_PORT",
    "VXLAN_HEADER_LEN",
    "VXLAN_OUTER_LEN",
    "AccessEvent",
    "AccessRecorder",
    "RECORD_VERBS",
    "insert_vlan",
    "remove_vlan",
    "vlan_tci",
    "is_vxlan",
    "vxlan_encap",
    "vxlan_decap",
    "vxlan_vni",
    "write_pcap",
    "read_pcap",
    "PcapError",
]
