"""NAT NF (Table 2): source NAT with dynamic port allocation.

Rewrites (SIP, SPORT) of outbound flows to the NAT's external address
and an allocated external port, keeping a bidirectional binding table
like iptables MASQUERADE.  Profile: R/W on the whole 4-tuple (Table 2's
NAT row).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..net.checksum import ipv4_header_checksum
from ..net.fields import Field
from ..net.headers import PROTO_TCP, PROTO_UDP, TcpView, UdpView, ip_to_int
from ..net.packet import _LATER_FRAGMENT, Packet, decode_flow_key
from .base import NetworkFunction, ProcessingContext, register_nf_class

__all__ = ["Nat", "NatBinding"]

_TCP_LEN = TcpView.HEADER_LEN
_UDP_LEN = UdpView.HEADER_LEN


class NatBinding:
    """One NAT translation: internal (ip, port) <-> external port."""

    __slots__ = ("internal_ip", "internal_port", "external_port", "packets")

    def __init__(self, internal_ip: str, internal_port: int, external_port: int):
        self.internal_ip = internal_ip
        self.internal_port = internal_port
        self.external_port = external_port
        self.packets = 0

    def __repr__(self) -> str:
        return (
            f"NatBinding({self.internal_ip}:{self.internal_port} -> "
            f":{self.external_port})"
        )


@register_nf_class
class Nat(NetworkFunction):
    """Port-translating source NAT."""

    KIND = "nat"

    def __init__(
        self,
        name: Optional[str] = None,
        external_ip: str = "203.0.113.1",
        port_base: int = 20000,
        port_count: int = 40000,
    ):
        super().__init__(name)
        self.external_ip = external_ip
        #: The bytes the SIP rewrite stores.
        self._external = ip_to_int(external_ip).to_bytes(4, "big")
        self._port_base = port_base
        self._port_count = port_count
        self._next_port = port_base
        self._by_internal: Dict[Tuple[str, int], NatBinding] = {}
        self._by_external: Dict[int, NatBinding] = {}
        #: Moved-in bindings whose external port collided and was remapped.
        self.handover_remaps = 0

    def _allocate(self, internal_ip: str, internal_port: int) -> NatBinding:
        if len(self._by_external) >= self._port_count:
            raise RuntimeError("NAT port pool exhausted")
        while self._next_port in self._by_external:
            self._next_port = (
                self._port_base + (self._next_port + 1 - self._port_base) % self._port_count
            )
        binding = NatBinding(internal_ip, internal_port, self._next_port)
        self._by_internal[(internal_ip, internal_port)] = binding
        self._by_external[self._next_port] = binding
        return binding

    def process(self, pkt: Packet, ctx: ProcessingContext) -> None:
        # Portless traffic (ICMP, fragments past the first) carries no
        # L4 tuple to translate; it passes through untouched.  Dropping
        # here would be an *undeclared* drop -- Table 2's NAT row has no
        # Drop action, and the profile-audit oracle flags the mismatch.
        l3, proto, l4 = pkt._resolve()
        buf = pkt.buf
        if (proto != PROTO_TCP and proto != PROTO_UDP
                or buf[l3 + 6] & _LATER_FRAGMENT or buf[l3 + 7]):
            return
        if l4 + (_TCP_LEN if proto == PROTO_TCP else _UDP_LEN) > len(buf):
            raise ValueError(f"L4 header cut short at offset {l4}")
        rec = pkt.recorder
        if rec is not None:
            rec.record("read", Field.SIP, pkt.uid)
            rec.record("read", Field.SPORT, pkt.uid)
        key = ("%d.%d.%d.%d" % (buf[l3 + 12], buf[l3 + 13], buf[l3 + 14],
                                buf[l3 + 15]), (buf[l4] << 8) | buf[l4 + 1])
        binding = self._by_internal.get(key)
        if binding is None:
            binding = self._allocate(*key)
        binding.packets += 1
        if rec is not None:
            rec.record("write", Field.SIP, pkt.uid)
            rec.record("write", Field.SPORT, pkt.uid)
        port = binding.external_port
        buf[l3 + 12 : l3 + 16] = self._external
        buf[l4] = port >> 8
        buf[l4 + 1] = port & 0xFF
        ipv4_header_checksum(buf, l3)

    # ------------------------------------------------------ state handover
    def export_flow_state(self, flow_key: bytes) -> Optional[dict]:
        """Detach the binding for one flow so it can move instances.

        NAT state is keyed by the internal (src ip, src port) pair of
        the flow key.
        """
        src, _, _, sport, _ = decode_flow_key(flow_key)
        binding = self._by_internal.pop((src, sport), None)
        if binding is None:
            return None
        self._by_external.pop(binding.external_port, None)
        return {
            "internal_ip": binding.internal_ip,
            "internal_port": binding.internal_port,
            "external_port": binding.external_port,
            "packets": binding.packets,
        }

    def import_flow_state(self, flow_key: bytes, state: dict) -> None:
        """Adopt a moved binding, keeping its external port if free.

        The external port spaces of two NAT instances are independent,
        so the moved flow's port may already be taken here; in that case
        a fresh port is allocated (the translation changes, counted in
        ``handover_remaps``) rather than silently sharing a port.
        """
        key = (state["internal_ip"], state["internal_port"])
        port = state["external_port"]
        if port in self._by_external or key in self._by_internal:
            binding = self._allocate(*key) if key not in self._by_internal \
                else self._by_internal[key]
            self.handover_remaps += 1
        else:
            binding = NatBinding(*key, port)
            self._by_internal[key] = binding
            self._by_external[port] = binding
        binding.packets += state["packets"]

    # ------------------------------------------------------ operator API
    def binding_count(self) -> int:
        return len(self._by_internal)
