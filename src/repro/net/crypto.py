"""Lane-parallel AES-128 in CTR mode, for the VPN NF (§6.1: "encrypts a
packet based on the AES algorithm and wraps it with an AH header").

No third-party crypto is available offline, so this is a stdlib-only,
test-vector-verified FIPS-197 implementation built for host throughput.
CTR keystream blocks are independent of each other (NIST SP 800-38A
§6.5), so the n counter blocks of a payload are packed into one
128·n-bit integer -- block k in the k-th 16-byte lane, most significant
first -- and every round runs on all n lanes at once:

* SubBytes is one ``bytes.translate`` of the whole state, and a second
  translate of the same bytes gives 2·S for MixColumns;
* ShiftRows is six masked shifts (SubBytes and ShiftRows commute, so
  it runs first, on one integer instead of two);
* MixColumns is XORs of the state and its in-column byte rotations;
* AddRoundKey is one XOR with the round key times the lane-repeat
  constant (xⁿ−1)/(x−1), x = 2¹²⁸, which copies a 128-bit value into
  every lane (the row and rotation masks are repeated the same way).

The counter lanes ``nonce ‖ k`` have a closed form too: the block
numbers n−1−j in lane j sum to (xⁿ − n·x + n − 1)/(x−1)².  The 11
round keys are memoised per key.

Messages share lanes as well: :func:`aes_ctr_keystreams` packs the
counter lanes of several ``(nonce, length)`` messages (a burst of
payloads, as in multi-buffer IPsec) into one state and slices one
keystream per message out of a single pass, so the rounds' fixed cost
is paid once per burst.  :func:`aes_ctr_transform` is its one-message
case, and a single block (``Aes128``) is the same core at n = 1.  The
byte-wise transcription of the standard lives in
``tests/support/aes_textbook.py`` as the differential oracle.  Only the
forward cipher exists here: CTR is its own inverse.  The module also
provides the truncated-HMAC integrity check value (ICV) stamped into AH.

The simulation charges the *calibrated* VPN service time
(``SimParams.nf_service_us['vpn']``) on the model clock; this code's
speed only moves the host clock.
"""

from __future__ import annotations

import hmac
import struct
from functools import lru_cache
from typing import List, Sequence, Tuple

__all__ = ["Aes128", "aes_ctr_keystreams", "aes_ctr_transform", "compute_icv"]

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

#: Bound of the key-schedule memo: distinct keys alive at once are one
#: per VPN tunnel, a handful in any run.
KEY_SCHEDULE_CACHE_SIZE = 32


def _xtime(a: int) -> int:
    """Multiply by x in GF(2^8)."""
    a <<= 1
    return (a ^ 0x11B) & 0xFF if a & 0x100 else a


# SubBytes as translate tables: S(b), and 2·S(b) for MixColumns.
_SUB = bytes(_SBOX)
_SUB2 = bytes(_xtime(s) for s in _SBOX)

_LANE = 1 << 128  # x: one lane up
_ONE_PER_LANE = bytes(15) + b"\x01"  # one lane of (x^n - 1)/(x - 1)


def _pattern(byte_mask: str) -> int:
    """128-bit mask of the state bytes marked ``x`` (byte 4c + r is row r
    of column c; columns are separated by spaces)."""
    return int.from_bytes(bytes(0xFF if ch == "x" else 0
                                for ch in byte_mask.replace(" ", "")), "big")


# Lane masks, in the order _encrypt_lanes unpacks them.  ShiftRows moves
# row r left by r columns: the columns that stay inside the lane shift
# up by 32·r bits, the ones that wrap shift down by 128 − 32·r.
_MASKS = (
    _pattern("x... x... x... x..."),  # row 0 stays
    _pattern(".x.. .x.. .x.. ...."),  # row 1, << 32
    _pattern(".... .... .... .x.."),  # row 1, >> 96
    _pattern("..x. ..x. .... ...."),  # row 2, << 64
    _pattern(".... .... ..x. ..x."),  # row 2, >> 64
    _pattern("...x .... .... ...."),  # row 3, << 96
    _pattern(".... ...x ...x ...x"),  # row 3, >> 32
    # In-column rotations: rot2 swaps the column's halves, rot1 moves
    # rows 1-3 up one and row 0 to the bottom.
    _pattern("xx.. xx.. xx.. xx.."),
    _pattern("..xx ..xx ..xx ..xx"),
    _pattern("xxx. xxx. xxx. xxx."),
    _pattern("...x ...x ...x ...x"),
)


@lru_cache(maxsize=KEY_SCHEDULE_CACHE_SIZE)
def _expand_key(key: bytes) -> Tuple[int, ...]:
    """The 11 round keys of a 16-byte key, each a 128-bit integer."""
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
    return tuple((words[i] << 96) | (words[i + 1] << 64) | (words[i + 2] << 32)
                 | words[i + 3] for i in range(0, 44, 4))


def _encrypt_lanes(rk: Tuple[int, ...], state: int, blocks: int, rep: int) -> int:
    """Encrypt the ``blocks`` 16-byte lanes of ``state`` at once.

    ``rep`` is the lane-repeat constant (x^blocks - 1)/(x - 1).
    """
    size = 16 * blocks
    m0, a1, b1, a2, b2, a3, b3, h16, l16, h24, l8 = [m * rep for m in _MASKS]
    sub, sub2, from_bytes = _SUB, _SUB2, int.from_bytes
    state ^= rk[0] * rep
    for key in rk[1:10]:
        state = ((state & m0) | ((state << 32) & a1) | ((state >> 96) & b1)
                 | ((state << 64) & a2) | ((state >> 64) & b2)
                 | ((state << 96) & a3) | ((state >> 32) & b3))
        raw = state.to_bytes(size, "big")
        s = from_bytes(raw.translate(sub), "big")
        # MixColumns: b_r = 2s_r ^ 3s_(r+1) ^ s_(r+2) ^ s_(r+3)
        #                 = v ^ rot1(v ^ s), v = 2s ^ rot2(s).
        v = from_bytes(raw.translate(sub2), "big") ^ ((s << 16) & h16) ^ ((s >> 16) & l16)
        w = v ^ s
        state = v ^ ((w << 8) & h24) ^ ((w >> 24) & l8) ^ key * rep
    # Last round has no MixColumns.
    state = ((state & m0) | ((state << 32) & a1) | ((state >> 96) & b1)
             | ((state << 64) & a2) | ((state >> 64) & b2)
             | ((state << 96) & a3) | ((state >> 32) & b3))
    return from_bytes(state.to_bytes(size, "big").translate(sub), "big") ^ rk[10] * rep


class Aes128:
    """AES with a 128-bit key: ECB single-block encrypt."""

    BLOCK = 16

    def __init__(self, key: bytes):
        self._round_keys = _expand_key(bytes(key))

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != self.BLOCK:
            raise ValueError("AES block must be 16 bytes")
        state = int.from_bytes(block, "big")
        return _encrypt_lanes(self._round_keys, state, 1, 1).to_bytes(16, "big")


def _ctr_lanes(key: bytes, spans: Sequence[Tuple[int, int]]) -> Tuple[int, int]:
    """``(keystream, lanes)``: every message's CTR blocks, from one pass.

    Message after message, most significant first, each message's
    counter blocks (the 8-byte big-endian nonce followed by an 8-byte
    big-endian block counter) become lanes of one state; ``keystream``
    is that state encrypted, ``lanes`` its block count.
    """
    round_keys = _expand_key(bytes(key))
    state = rep = total = 0
    for nonce, length in spans:
        if nonce < 0 or nonce >= 1 << 64:
            raise ValueError("nonce must fit in 64 bits")
        if length < 0:
            raise ValueError("keystream length must not be negative")
        blocks = (length + 15) >> 4
        ones = int.from_bytes(_ONE_PER_LANE * blocks, "big")
        # Lane j (from the least significant) holds block n-1-j: the
        # block numbers are (ones - n)/(x - 1) = (x^n - n·x + n - 1)/(x - 1)^2.
        shift = 128 * blocks
        state = (state << shift) | ((nonce << 64) * ones
                                    + (ones - blocks) // (_LANE - 1))
        rep = (rep << shift) | ones
        total += blocks
    if not total:
        return 0, 0
    return _encrypt_lanes(round_keys, state, total, rep), total


def aes_ctr_keystreams(key: bytes,
                       spans: Sequence[Tuple[int, int]]) -> List[bytes]:
    """The CTR keystreams of several messages, from one lane pass.

    ``spans`` lists ``(nonce, length)`` per message; the result holds
    ``length`` keystream bytes for each, in order.  The messages share
    the lanes of one state, so a burst of short payloads pays the
    rounds' fixed cost once instead of once per payload.  Any
    out-of-range nonce raises ``ValueError`` before the pass.
    """
    keystream, lanes = _ctr_lanes(key, spans)
    out = keystream.to_bytes(16 * lanes, "big")
    streams = []
    start = 0
    for _, length in spans:
        streams.append(out[start:start + length])
        start += (length + 15) & ~15
    return streams


def aes_ctr_transform(key: bytes, nonce: int, data: bytes) -> bytes:
    """CTR-mode encrypt/decrypt (the operation is its own inverse).

    The one-message case of :func:`aes_ctr_keystreams`: the same lane
    pass, with the keystream kept as an integer for the XOR.
    Length-preserving, so the VPN NF can encrypt a payload in place.
    ``data`` is any bytes-like object.
    """
    length = len(data)
    keystream, lanes = _ctr_lanes(key, ((nonce, length),))
    keystream >>= 8 * (16 * lanes - length)
    return (int.from_bytes(data, "big") ^ keystream).to_bytes(length, "big")


def compute_icv(key: bytes, data: bytes, length: int = 12) -> bytes:
    """Truncated HMAC-SHA1 integrity check value (RFC 2404 style)."""
    return hmac.digest(key, data, "sha1")[:length]
