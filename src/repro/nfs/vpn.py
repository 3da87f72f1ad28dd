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
Because the sequence numbers of a burst are known before it is served,
the encryptor's :meth:`~VpnEncryptor.handle_burst` computes every
payload's keystream in one lane pass (multi-buffer, as in
``intel-ipsec-mb``) instead of one pass per packet.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..net.ah import insert_ah, refresh_icv, remove_ah, verify_ah
from ..net.crypto import aes_ctr_keystreams, aes_ctr_transform
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
        # Checked here: insert_ah would raise on every packet and
        # handle() drop each one, so a bad SPI would read as 100% loss.
        if not 0 <= spi < 1 << 32:
            raise ValueError("VPN SPI must fit in 32 bits")
        self.key = key
        self.spi = spi
        self.seq = 0
        #: While a burst is served: the ``(seq, payload length)`` each of
        #: its packets is expected to encrypt under, and (once the first
        #: payload needs them) their keystreams, from one lane pass.
        self._spans: Optional[List[Tuple[int, int]]] = None
        self._streams: Optional[List[bytes]] = None

    def handle_burst(self, pkts: Sequence[Packet]) -> List[ProcessingContext]:
        """Serve a burst with one cipher pass for all of its payloads.

        Each packet whose payload length reads (here, without a
        recorder event) will encrypt under the next sequence number; a
        frame that does not parse gets none, as :meth:`process` fails
        it before it spends one.  The burst stops at the first sequence
        number that no longer fits the 64-bit nonce, so those packets
        take the per-packet call and fail exactly as they would alone.
        """
        spans = []
        seq = self.seq
        for pkt in pkts:
            try:
                length = len(pkt.buf) - pkt.payload_offset
            except ValueError:
                continue
            seq += 1
            if seq >> 64:
                break
            spans.append((seq, length if length > 0 else 0))
        self._spans = spans
        try:
            return super().handle_burst(pkts)
        finally:
            self._spans = self._streams = None

    def _encrypt(self, payload: bytes) -> bytes:
        """Encrypt under ``self.seq``: the burst's keystream when the
        payload is the one it was read as, else one call of its own."""
        seq = self.seq
        spans = self._spans
        if spans:
            index = seq - spans[0][0]
            length = len(payload)
            if 0 <= index < len(spans) and spans[index][1] == length:
                streams = self._streams
                if streams is None:
                    streams = self._streams = aes_ctr_keystreams(self.key, spans)
                return (int.from_bytes(payload, "big")
                        ^ int.from_bytes(streams[index], "big")).to_bytes(length, "big")
        return aes_ctr_transform(self.key, seq, payload)

    def process(self, pkt: Packet, ctx: ProcessingContext) -> None:
        # The payload read refuses a frame that does not parse, before
        # it spends a sequence number: a VPN beside a sibling that drops
        # such a frame keeps the sequential chain's numbering.
        payload = pkt.payload
        self.seq += 1
        if payload:
            pkt.set_payload(self._encrypt(payload))
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
