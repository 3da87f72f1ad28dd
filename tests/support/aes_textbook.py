"""Byte-wise FIPS-197 AES-128: the differential oracle for
``repro.net.crypto``.

A direct transcription of the standard -- a 16-byte state, SubBytes,
ShiftRows, MixColumns with a bit-serial GF(2^8) multiply, both cipher
directions, the key schedule re-expanded per object -- that favours
clarity over speed (about 10 ms per KiB).  It shares nothing with the
lane-parallel core it checks: even the S-box is derived here from the
field inverse and the affine map (FIPS-197 §5.1.1) rather than imported.
"""

from __future__ import annotations

from typing import List

__all__ = ["SBOX", "TextbookAes128", "textbook_ctr_transform"]


def _xtime(a: int) -> int:
    """Multiply by x in GF(2^8)."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gmul(a: int, b: int) -> int:
    """GF(2^8) multiplication."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _derive_sbox() -> List[int]:
    sbox = []
    for value in range(256):
        inverse = next((c for c in range(1, 256) if _gmul(value, c) == 1), 0)
        out = 0x63
        for shift in range(5):  # b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4)
            out ^= ((inverse << shift) | (inverse >> (8 - shift))) & 0xFF
        sbox.append(out)
    return sbox


SBOX = _derive_sbox()
_INV_SBOX = [0] * 256
for _i, _v in enumerate(SBOX):
    _INV_SBOX[_v] = _i

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


class TextbookAes128:
    """AES with a 128-bit key: ECB single-block encrypt/decrypt."""

    ROUNDS = 10
    BLOCK = 16

    def __init__(self, key: bytes):
        if len(key) != 16:
            raise ValueError("AES-128 requires a 16-byte key")
        self._round_keys = self._expand_key(key)

    @staticmethod
    def _expand_key(key: bytes) -> List[List[int]]:
        words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
        for i in range(4, 4 * (TextbookAes128.ROUNDS + 1)):
            temp = list(words[i - 1])
            if i % 4 == 0:
                temp = temp[1:] + temp[:1]  # RotWord
                temp = [SBOX[b] for b in temp]  # SubWord
                temp[0] ^= _RCON[i // 4 - 1]
            words.append([a ^ b for a, b in zip(words[i - 4], temp)])
        # Group into 16-byte round keys.
        return [
            sum(words[4 * r : 4 * r + 4], [])
            for r in range(TextbookAes128.ROUNDS + 1)
        ]

    # State is a flat 16-byte list in column-major order (FIPS layout).
    @staticmethod
    def _add_round_key(state: List[int], rk: List[int]) -> None:
        for i in range(16):
            state[i] ^= rk[i]

    @staticmethod
    def _sub_bytes(state: List[int]) -> None:
        for i in range(16):
            state[i] = SBOX[state[i]]

    @staticmethod
    def _inv_sub_bytes(state: List[int]) -> None:
        for i in range(16):
            state[i] = _INV_SBOX[state[i]]

    @staticmethod
    def _shift_rows(state: List[int]) -> None:
        # Row r (bytes r, r+4, r+8, r+12) rotates left by r.
        for r in range(1, 4):
            row = [state[r + 4 * c] for c in range(4)]
            row = row[r:] + row[:r]
            for c in range(4):
                state[r + 4 * c] = row[c]

    @staticmethod
    def _inv_shift_rows(state: List[int]) -> None:
        for r in range(1, 4):
            row = [state[r + 4 * c] for c in range(4)]
            row = row[-r:] + row[:-r]
            for c in range(4):
                state[r + 4 * c] = row[c]

    @staticmethod
    def _mix_columns(state: List[int]) -> None:
        for c in range(4):
            col = state[4 * c : 4 * c + 4]
            state[4 * c + 0] = _gmul(col[0], 2) ^ _gmul(col[1], 3) ^ col[2] ^ col[3]
            state[4 * c + 1] = col[0] ^ _gmul(col[1], 2) ^ _gmul(col[2], 3) ^ col[3]
            state[4 * c + 2] = col[0] ^ col[1] ^ _gmul(col[2], 2) ^ _gmul(col[3], 3)
            state[4 * c + 3] = _gmul(col[0], 3) ^ col[1] ^ col[2] ^ _gmul(col[3], 2)

    @staticmethod
    def _inv_mix_columns(state: List[int]) -> None:
        for c in range(4):
            col = state[4 * c : 4 * c + 4]
            state[4 * c + 0] = (
                _gmul(col[0], 14) ^ _gmul(col[1], 11) ^ _gmul(col[2], 13) ^ _gmul(col[3], 9)
            )
            state[4 * c + 1] = (
                _gmul(col[0], 9) ^ _gmul(col[1], 14) ^ _gmul(col[2], 11) ^ _gmul(col[3], 13)
            )
            state[4 * c + 2] = (
                _gmul(col[0], 13) ^ _gmul(col[1], 9) ^ _gmul(col[2], 14) ^ _gmul(col[3], 11)
            )
            state[4 * c + 3] = (
                _gmul(col[0], 11) ^ _gmul(col[1], 13) ^ _gmul(col[2], 9) ^ _gmul(col[3], 14)
            )

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != self.BLOCK:
            raise ValueError("AES block must be 16 bytes")
        state = list(block)
        self._add_round_key(state, self._round_keys[0])
        for rnd in range(1, self.ROUNDS):
            self._sub_bytes(state)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, self._round_keys[rnd])
        self._sub_bytes(state)
        self._shift_rows(state)
        self._add_round_key(state, self._round_keys[self.ROUNDS])
        return bytes(state)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != self.BLOCK:
            raise ValueError("AES block must be 16 bytes")
        state = list(block)
        self._add_round_key(state, self._round_keys[self.ROUNDS])
        for rnd in range(self.ROUNDS - 1, 0, -1):
            self._inv_shift_rows(state)
            self._inv_sub_bytes(state)
            self._add_round_key(state, self._round_keys[rnd])
            self._inv_mix_columns(state)
        self._inv_shift_rows(state)
        self._inv_sub_bytes(state)
        self._add_round_key(state, self._round_keys[0])
        return bytes(state)


def textbook_ctr_transform(key: bytes, nonce: int, data: bytes) -> bytes:
    """CTR mode, one block and one byte at a time.

    The counter block is the 8-byte big-endian nonce followed by an
    8-byte big-endian block counter.
    """
    aes = TextbookAes128(key)
    out = bytearray(len(data))
    for block_index in range((len(data) + 15) // 16):
        counter = nonce.to_bytes(8, "big") + block_index.to_bytes(8, "big")
        keystream = aes.encrypt_block(counter)
        start = block_index * 16
        chunk = data[start : start + 16]
        for i, byte in enumerate(chunk):
            out[start + i] = byte ^ keystream[i]
    return bytes(out)
