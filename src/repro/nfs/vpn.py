"""VPN NF (§6.1): IPsec AH with AES payload encryption.

"It implements the tunnel mode of IPsec Authentication Header (AH)
protocol.  It encrypts a packet based on the AES algorithm and wraps it
with an AH header."  The encryptor transforms the L4 payload in place
with AES-128-CTR (length preserving) and splices in a 24-byte AH whose
ICV covers the addresses and everything behind the AH.  The peer
:class:`VpnDecryptor` reverses both steps, so examples can run a full
encrypt -> network -> decrypt path.

The CTR nonce must be recoverable by the decryptor from the packet
alone; we derive it from the AH sequence number, which the AH carries.
"""

from __future__ import annotations

from typing import Optional

from ..net.ah import insert_ah, refresh_icv, remove_ah, verify_ah
from ..net.crypto import aes_ctr_transform
from ..net.packet import Packet
from .base import NetworkFunction, ProcessingContext, register_nf_class

__all__ = ["VpnEncryptor", "VpnDecryptor", "DEFAULT_VPN_KEY"]

DEFAULT_VPN_KEY = bytes(range(16))
DEFAULT_SPI = 0x1001


@register_nf_class
class VpnEncryptor(NetworkFunction):
    """Encrypt payload (AES-CTR) and add an Authentication Header."""

    KIND = "vpn"

    def __init__(
        self,
        name: Optional[str] = None,
        key: bytes = DEFAULT_VPN_KEY,
        spi: int = DEFAULT_SPI,
    ):
        super().__init__(name)
        if len(key) != 16:
            raise ValueError("VPN key must be 16 bytes (AES-128)")
        self.key = key
        self.spi = spi
        self.seq = 0

    def process(self, pkt: Packet, ctx: ProcessingContext) -> None:
        self.seq += 1
        payload = pkt.payload
        if payload:
            pkt.set_payload(aes_ctr_transform(self.key, self.seq, payload))
        if pkt.has_ah:
            # Already encapsulated (e.g. a second VPN hop in a synthetic
            # chain): the payload is re-encrypted under a fresh keystream
            # and the existing AH refreshed (sequence and ICV) instead of
            # stacking headers.
            pkt.ah.seq = self.seq
            refresh_icv(pkt, self.key)
        else:
            insert_ah(pkt, spi=self.spi, seq=self.seq, icv_key=self.key)

    # ------------------------------------------------------ state handover
    def export_shared_state(self) -> dict:
        """Snapshot the AH sequence (cross-flow state, non-destructive)."""
        return {"seq": self.seq}

    def import_shared_state(self, state: dict) -> None:
        """Adopt a peer's sequence floor: AH sequences must never
        regress or repeat, so a new instance starts at the max of what
        any exporting peer has already used."""
        self.seq = max(self.seq, int(state["seq"]))


class VpnDecryptor(NetworkFunction):
    """Strip the AH and decrypt the payload (the far peer of the tunnel)."""

    KIND = "vpn-decrypt"

    def __init__(
        self,
        name: Optional[str] = None,
        key: bytes = DEFAULT_VPN_KEY,
        verify: bool = True,
    ):
        super().__init__(name)
        if len(key) != 16:
            raise ValueError("VPN key must be 16 bytes (AES-128)")
        self.key = key
        self.verify = verify
        self.auth_failures = 0

    def process(self, pkt: Packet, ctx: ProcessingContext) -> None:
        if not pkt.has_ah:
            ctx.drop("no AH")
            return
        if self.verify and not verify_ah(pkt, self.key):
            self.auth_failures += 1
            ctx.drop("AH integrity failure")
            return
        seq = pkt.ah.seq
        remove_ah(pkt, self.key, verify=False)
        payload = pkt.payload
        if payload:
            pkt.set_payload(aes_ctr_transform(self.key, seq, payload))


register_nf_class(VpnDecryptor)
