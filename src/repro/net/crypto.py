"""Lane-parallel AES-128 in CTR mode, for the VPN NF (§6.1: "encrypts a
packet based on the AES algorithm and wraps it with an AH header").

The package has no third-party runtime dependencies (README), so this
is a stdlib-only, test-vector-verified FIPS-197 implementation built
for host throughput.  CTR keystream blocks are independent of each
other (NIST SP 800-38A §6.5), so the n counter blocks of a payload are
encrypted together, and the state is held row-sliced: four integers,
one per AES row, where row r holds byte r of every column of every
block -- four bytes per block, block 0 most significant (``raw[r::4]``
of the counter blocks).  Every round then runs on all n blocks at once:

* ShiftRows rotates rows 1-3 left by 8/16/24 bits inside each 32-bit
  group (two masked shifts a row);
* SubBytes joins the rows into one integer and converts it once -- one
  ``to_bytes``, one ``bytes.translate``, one ``from_bytes`` -- and masks
  split the rows back out.  Never one conversion per row: that is four
  times the calls a round, and a burst of one-block payloads pays them
  all (``test_keystream_pass_stays_within_its_call_budget``);
* MixColumns is XOR between rows, ``b_r = s_r ^ t ^ 2·(s_r ^ s_(r+1))``
  with ``t`` the XOR of all four rows and 2· the GF(2⁸) doubling done
  bytewise on the integer.  Three doublings do: the four row pairs XOR
  to 0.  A second, 2·S, table would cost a translate and a
  ``from_bytes`` a round, slower from ten blocks up;
* AddRoundKey XORs each row with its 32-bit row word of the round key
  times the group-repeat constant, which copies it into every block.

The last round's rows are interleaved back into blocks
(``out[r::4] = …``) and take round key 10 whole, times the lane-repeat
constant (xⁿ−1)/(x−1), x = 2¹²⁸.  The counter blocks ``nonce ‖ k`` have
a closed form too: the block numbers n−1−j in lane j (from the least
significant) sum to (xⁿ − n·x + n − 1)/(x−1)².  That quotient is a long
division as wide as the message, so both lane constants of an n-block
message are memoised per block count (a traffic mix has a handful of
payload sizes), and a message's counter lanes cost one memo hit, a
multiply-add and a shift.  The key schedule is memoised per key, in the
form the rounds read it.

Messages share the pass as well: :func:`aes_ctr_keystreams` packs the
counter blocks of several ``(nonce, length)`` messages (a burst of
payloads, as in multi-buffer IPsec) into one state and slices one
keystream per message out of a single pass, so the rounds' fixed cost
is paid once per burst.  :func:`aes_ctr_transform` is its one-message
case, and a single block (``Aes128``) is the same core at n = 1.  The
byte-wise transcription of the standard lives in
``tests/support/aes_textbook.py`` as the differential oracle.  Only the
forward cipher exists here: CTR is its own inverse.  The module also
provides the truncated HMAC-SHA1 integrity check value (ICV) stamped
into AH.  HMAC hashes a keyed inner pad and a keyed outer pad ahead of
the message (RFC 2104); the SHA-1 states after those pads depend on the
key alone, so they are memoised per key and every ICV copies them:
``copy`` / ``update`` / ``digest`` twice, not a fresh key set-up.

The simulation charges the *calibrated* VPN service time
(``SimParams.nf_service_us['vpn']``) on the model clock; this code's
speed only moves the host clock.
"""

from __future__ import annotations

import hashlib
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

#: Bound of the per-block-count lane-constant memo: a payload's block
#: count is at most 94 at a 1,500-byte MTU (563 for a 9,000-byte jumbo
#: frame), and a traffic mix has a handful of sizes.  An entry holds
#: two integers of 16 bytes a block, so the memo stays under 2.5 MB
#: even when it fills with jumbo counts.
LANE_CONSTANT_CACHE_SIZE = 128

#: Bound of the HMAC pad memo: one key per VPN tunnel, as above.
ICV_KEY_CACHE_SIZE = 32

_SUB = bytes(_SBOX)  # SubBytes as a translate table

_LANE = 1 << 128  # x: one lane up
_ONE_PER_LANE = bytes(15) + b"\x01"  # one lane of (x^n - 1)/(x - 1)

_SHA1_BLOCK = 64
_IPAD = bytes(b ^ 0x36 for b in range(256))  # XOR with HMAC's ipad
_OPAD = bytes(b ^ 0x5C for b in range(256))  # and opad, as translates

#: ``_expand_key``'s result: round keys 0-9 as four row words each,
#: round key 10 as one 128-bit integer.
_RoundKeys = Tuple[Tuple[Tuple[int, int, int, int], ...], int]


@lru_cache(maxsize=KEY_SCHEDULE_CACHE_SIZE)
def _expand_key(key: bytes) -> _RoundKeys:
    """The round keys of a 16-byte key, as :func:`_encrypt_lanes` reads
    them: keys 0-9 split into row words (row r's word holds byte r of
    columns 0-3, column 0 most significant), key 10 whole, in block
    byte order."""
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
    rows = tuple(
        tuple((((words[i] >> s) & 255) << 24) | (((words[i + 1] >> s) & 255) << 16)
              | (((words[i + 2] >> s) & 255) << 8) | ((words[i + 3] >> s) & 255)
              for s in (24, 16, 8, 0))
        for i in range(0, 40, 4))
    return rows, (words[40] << 96) | (words[41] << 64) | (words[42] << 32) | words[43]


def _encrypt_lanes(rk: _RoundKeys, state: int, blocks: int, rep: int) -> int:
    """Encrypt the ``blocks`` 16-byte lanes of ``state`` at once.

    ``rep`` is the lane-repeat constant (x^blocks - 1)/(x - 1).
    """
    rows, last = rk
    size = 16 * blocks
    q = 4 * blocks  # bytes per row
    w = 8 * q
    w2 = 2 * w
    low = (1 << w) - 1
    half = (1 << w2) - 1
    one = low // 0xFFFFFFFF  # 1 in every 32-bit group
    hi24, lo8 = 0xFFFFFF00 * one, 0xFF * one
    hi16, lo16 = 0xFFFF0000 * one, 0xFFFF * one
    hi8, lo24 = 0xFF000000 * one, 0xFFFFFF * one
    fe, b1 = 0xFEFEFEFE * one, 0x01010101 * one
    sub, from_bytes = _SUB, int.from_bytes
    # The blocks' rows, joined, then split and keyed with round key 0.
    raw = state.to_bytes(size, "big")
    s = from_bytes(raw[0::4] + raw[1::4] + raw[2::4] + raw[3::4], "big")
    hi, lo = s >> w2, s & half
    k0, k1, k2, k3 = rows[0]
    r0, r1, r2, r3 = ((hi >> w) ^ k0 * one, (hi & low) ^ k1 * one,
                      (lo >> w) ^ k2 * one, (lo & low) ^ k3 * one)
    for key in rows[1:] + (None,):
        # ShiftRows (it commutes with SubBytes) on the rows, then
        # SubBytes on them joined: row 0 most significant.
        raw = ((((r0 << w) | ((r1 << 8) & hi24) | ((r1 >> 24) & lo8)) << w2)
               | (((((r2 << 16) & hi16) | ((r2 >> 16) & lo16)) << w)
                  | ((r3 << 24) & hi8) | ((r3 >> 8) & lo24))
               ).to_bytes(size, "big").translate(sub)
        if key is None:  # the last round has no MixColumns
            break
        s = from_bytes(raw, "big")
        hi, lo = s >> w2, s & half
        s0, s1, s2, s3 = hi >> w, hi & low, lo >> w, lo & low
        # MixColumns: b_r = s_r ^ t ^ 2(s_r ^ s_(r+1)); 2x is a shift
        # with 0x1B XORed into each byte whose top bit fell off.
        x0 = s0 ^ s1
        x1 = s1 ^ s2
        x2 = s2 ^ s3
        t = x0 ^ x2
        y0 = ((x0 << 1) & fe) ^ ((x0 >> 7) & b1) * 0x1B
        y1 = ((x1 << 1) & fe) ^ ((x1 >> 7) & b1) * 0x1B
        y2 = ((x2 << 1) & fe) ^ ((x2 >> 7) & b1) * 0x1B
        k0, k1, k2, k3 = key
        r0 = s0 ^ t ^ y0 ^ k0 * one
        r1 = s1 ^ t ^ y1 ^ k1 * one
        r2 = s2 ^ t ^ y2 ^ k2 * one
        r3 = s3 ^ t ^ y0 ^ y1 ^ y2 ^ k3 * one  # 2(s_3 ^ s_0) = y0 ^ y1 ^ y2
    out = bytearray(size)
    out[0::4] = raw[:q]
    out[1::4] = raw[q:2 * q]
    out[2::4] = raw[2 * q:3 * q]
    out[3::4] = raw[3 * q:]
    return from_bytes(out, "big") ^ last * rep


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


@lru_cache(maxsize=LANE_CONSTANT_CACHE_SIZE)
def _lane_constants(blocks: int) -> Tuple[int, int]:
    """``(ones, ramp)`` of an n-block message: ``ones`` = (xⁿ−1)/(x−1)
    has a 1 in every lane, and lane j of ``ramp`` (from the least
    significant) holds its block number n−1−j: (ones − n)/(x − 1)."""
    ones = int.from_bytes(_ONE_PER_LANE * blocks, "big")
    return ones, (ones - blocks) // (_LANE - 1)


def _ctr_lanes(key: bytes, spans: Sequence[Tuple[int, int]]) -> Tuple[int, int]:
    """``(keystream, lanes)``: every message's CTR blocks, from one pass.

    Message after message, most significant first, each message's
    counter blocks (the 8-byte big-endian nonce followed by an 8-byte
    big-endian block counter) become lanes of one state; ``keystream``
    is that state encrypted, ``lanes`` its block count.
    """
    round_keys = _expand_key(bytes(key))
    state = total = 0
    for nonce, length in spans:
        if nonce < 0 or nonce >= 1 << 64:
            raise ValueError("nonce must fit in 64 bits")
        if length < 0:
            raise ValueError("keystream length must not be negative")
        blocks = (length + 15) >> 4
        ones, ramp = _lane_constants(blocks)
        state = (state << 128 * blocks) | ((nonce << 64) * ones + ramp)
        total += blocks
    if not total:
        return 0, 0
    # The lane-repeat constant has a 1 in every lane whatever the split.
    rep = int.from_bytes(_ONE_PER_LANE * total, "big")
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


@lru_cache(maxsize=ICV_KEY_CACHE_SIZE)
def _hmac_pads(key: bytes) -> tuple:
    """The SHA-1 states after HMAC's keyed inner and outer pads (RFC
    2104 §4): a key longer than the 64-byte block is hashed first, a
    shorter one zero-filled.  Every call shares them: copy a state
    before updating it."""
    if len(key) > _SHA1_BLOCK:
        key = hashlib.sha1(key).digest()
    key = key.ljust(_SHA1_BLOCK, b"\0")
    return (hashlib.sha1(key.translate(_IPAD)),
            hashlib.sha1(key.translate(_OPAD)))


def compute_icv(key: bytes, data: bytes, length: int = 12) -> bytes:
    """Truncated HMAC-SHA1 integrity check value (RFC 2404 style).

    Each call copies the key's memoised pad states and hashes ``data``
    (any bytes-like object) into them: two compressions fewer than
    keying HMAC afresh.
    """
    inner, outer = _hmac_pads(bytes(key))
    inner = inner.copy()
    inner.update(data)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()[:length]
