"""T-table AES-128 in CTR mode, for the VPN NF (§6.1: "encrypts a packet
based on the AES algorithm and wraps it with an AH header").

No third-party crypto is available offline, so this is a stdlib-only,
test-vector-verified FIPS-197 implementation built for host throughput:
SubBytes, ShiftRows and MixColumns are folded into four 256-entry 32-bit
tables derived from the S-box at import, the 44-word key schedule is
memoised per key, the CTR keystream is generated word-wise for all
blocks of a payload, and the payload is XORed as one big integer.  The
byte-wise transcription of the standard lives in
``tests/support/aes_textbook.py`` as the differential oracle.  Only the
forward cipher exists here: CTR is its own inverse.  The module also
provides the truncated-HMAC integrity check value (ICV) stamped into AH.

The simulation charges the *calibrated* VPN service time
(``SimParams.nf_service_us['vpn']``) on the model clock; this code's
speed only moves the host clock.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from functools import lru_cache
from typing import List, Tuple

__all__ = ["Aes128", "aes_ctr_transform", "compute_icv"]

# FIPS-197 S-box.
_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
]

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]
_M32 = 0xFFFFFFFF

#: Bound of the key-schedule memo: distinct keys alive at once are one
#: per VPN tunnel, a handful in any run.
KEY_SCHEDULE_CACHE_SIZE = 32


def _xtime(a: int) -> int:
    """Multiply by x in GF(2^8)."""
    a <<= 1
    return (a ^ 0x11B) & 0xFF if a & 0x100 else a


# Te0[x] is the MixColumns column (2s, s, s, 3s) of s = S-box[x], packed
# big-endian; Te1..Te3 are its byte rotations (one per state row).
_TE0 = [(_xtime(s) << 24) | (s << 16) | (s << 8) | (_xtime(s) ^ s) for s in _SBOX]
_TE1 = [(t >> 8) | ((t & 0xFF) << 24) for t in _TE0]
_TE2 = [(t >> 8) | ((t & 0xFF) << 24) for t in _TE1]
_TE3 = [(t >> 8) | ((t & 0xFF) << 24) for t in _TE2]


@lru_cache(maxsize=KEY_SCHEDULE_CACHE_SIZE)
def _expand_key(key: bytes) -> Tuple[int, ...]:
    """The 44 big-endian round-key words of a 16-byte key."""
    if len(key) != 16:
        raise ValueError("AES-128 requires a 16-byte key")
    S = _SBOX
    words = list(struct.unpack(">4I", key))
    for i in range(4, 44):
        temp = words[i - 1]
        if i % 4 == 0:  # SubWord(RotWord(temp)) ^ Rcon
            temp = ((S[(temp >> 16) & 255] << 24) | (S[(temp >> 8) & 255] << 16)
                    | (S[temp & 255] << 8) | S[temp >> 24]) ^ (_RCON[i // 4 - 1] << 24)
        words.append(words[i - 4] ^ temp)
    return tuple(words)


def _encrypt_counters(rk: Tuple[int, ...], high: int, low: int, count: int) -> List[int]:
    """Encrypt the ``count`` blocks ``high || low``, ``high || low+1``, ...

    ``high`` and ``low`` are the 64-bit halves of the first block; the
    result is four big-endian words per block.
    """
    T0, T1, T2, T3, S = _TE0, _TE1, _TE2, _TE3, _SBOX  # locals for the inner loop
    out: List[int] = []
    k0, k1, k2, k3 = rk[:4]
    a0 = (high >> 32) ^ k0
    a1 = (high & _M32) ^ k1
    middle = [rk[r : r + 4] for r in range(4, 40, 4)]
    e0, e1, e2, e3 = rk[40:]
    for counter in range(low, low + count):
        s0 = a0
        s1 = a1
        s2 = ((counter >> 32) & _M32) ^ k2
        s3 = (counter & _M32) ^ k3
        for r0, r1, r2, r3 in middle:
            t0 = T0[s0 >> 24] ^ T1[(s1 >> 16) & 255] ^ T2[(s2 >> 8) & 255] ^ T3[s3 & 255] ^ r0
            t1 = T0[s1 >> 24] ^ T1[(s2 >> 16) & 255] ^ T2[(s3 >> 8) & 255] ^ T3[s0 & 255] ^ r1
            t2 = T0[s2 >> 24] ^ T1[(s3 >> 16) & 255] ^ T2[(s0 >> 8) & 255] ^ T3[s1 & 255] ^ r2
            s3 = T0[s3 >> 24] ^ T1[(s0 >> 16) & 255] ^ T2[(s1 >> 8) & 255] ^ T3[s2 & 255] ^ r3
            s0 = t0
            s1 = t1
            s2 = t2
        # Last round has no MixColumns: S-box bytes in ShiftRows order.
        out.append(((S[s0 >> 24] << 24) | (S[(s1 >> 16) & 255] << 16)
                    | (S[(s2 >> 8) & 255] << 8) | S[s3 & 255]) ^ e0)
        out.append(((S[s1 >> 24] << 24) | (S[(s2 >> 16) & 255] << 16)
                    | (S[(s3 >> 8) & 255] << 8) | S[s0 & 255]) ^ e1)
        out.append(((S[s2 >> 24] << 24) | (S[(s3 >> 16) & 255] << 16)
                    | (S[(s0 >> 8) & 255] << 8) | S[s1 & 255]) ^ e2)
        out.append(((S[s3 >> 24] << 24) | (S[(s0 >> 16) & 255] << 16)
                    | (S[(s1 >> 8) & 255] << 8) | S[s2 & 255]) ^ e3)
    return out


class Aes128:
    """AES with a 128-bit key: ECB single-block encrypt."""

    BLOCK = 16

    def __init__(self, key: bytes):
        self._round_keys = _expand_key(bytes(key))

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != self.BLOCK:
            raise ValueError("AES block must be 16 bytes")
        high, low = struct.unpack(">2Q", block)
        return struct.pack(">4I", *_encrypt_counters(self._round_keys, high, low, 1))


def aes_ctr_transform(key: bytes, nonce: int, data: bytes) -> bytes:
    """CTR-mode encrypt/decrypt (the operation is its own inverse).

    The counter block is the 8-byte big-endian nonce followed by an
    8-byte big-endian block counter.  Length-preserving, so the VPN NF
    can encrypt a payload in place.  ``data`` is any bytes-like object.
    """
    if nonce < 0 or nonce >= 1 << 64:
        raise ValueError("nonce must fit in 64 bits")
    length = len(data)
    blocks = (length + 15) >> 4
    words = _encrypt_counters(_expand_key(bytes(key)), nonce, 0, blocks)
    keystream = struct.pack(">%dI" % (4 * blocks), *words)[:length]
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")
    return mixed.to_bytes(length, "big")


def compute_icv(key: bytes, data: bytes, length: int = 12) -> bytes:
    """Truncated HMAC-SHA1 integrity check value (RFC 2404 style)."""
    return hmac.new(key, data, hashlib.sha1).digest()[:length]
