"""Unit tests for checksum, AES-128, ICV, and AH insertion/removal."""

import functools
import sys

import pytest

from repro.net import (
    Aes128,
    AhView,
    aes_ctr_transform,
    build_packet,
    compute_icv,
    crypto,
    insert_ah,
    internet_checksum,
    remove_ah,
    verify_ah,
)
from repro.net import ah as ah_module
from tests.support.aes_textbook import SBOX as TEXTBOOK_SBOX
from tests.support.aes_textbook import TextbookAes128, textbook_ctr_transform

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


# --------------------------------------------------------------- checksum
def test_internet_checksum_rfc1071_example():
    # Classic example from RFC 1071 §3.
    data = bytes.fromhex("0001f203f4f5f6f7")
    assert internet_checksum(data) == (~0xDDF2) & 0xFFFF


def test_internet_checksum_verifies_to_zero():
    data = bytearray(bytes.fromhex("45000054a6f200004011"))
    data += bytes.fromhex("0000c0a80001c0a800c7")
    checksum = internet_checksum(bytes(data))
    data[10] = checksum >> 8
    data[11] = checksum & 0xFF
    assert internet_checksum(bytes(data)) == 0


def test_internet_checksum_odd_length():
    assert internet_checksum(b"\x01") == (~0x0100) & 0xFFFF


# -------------------------------------------------------------------- AES
def test_aes128_fips197_appendix_c1_vector():
    plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
    expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    assert Aes128(KEY).encrypt_block(plaintext) == expected
    oracle = TextbookAes128(KEY)
    assert oracle.encrypt_block(plaintext) == expected
    assert oracle.decrypt_block(expected) == plaintext


def test_aes128_fips197_appendix_b_vector():
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    block = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
    expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
    assert Aes128(key).encrypt_block(block) == expected


def test_aes128_sp800_38a_ecb_vector():
    # NIST SP 800-38A F.1.1 ECB-AES128.Encrypt, block #1.
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    block = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
    expected = bytes.fromhex("3ad77bb40d7a3660a89ecaf32466ef97")
    assert Aes128(key).encrypt_block(block) == expected


# NIST SP 800-38A F.5.1 CTR-AES128.Encrypt: input block -> output block.
SP800_38A_CTR_BLOCKS = [
    ("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff", "ec8cdf7398607cb0f2d21675ea9ea1e4"),
    ("f0f1f2f3f4f5f6f7f8f9fafbfcfdff00", "362b7c3c6773516318a077d7fc5073ae"),
    ("f0f1f2f3f4f5f6f7f8f9fafbfcfdff01", "6a2cc3787889374fbeb4c81b17ba6c44"),
    ("f0f1f2f3f4f5f6f7f8f9fafbfcfdff02", "e89c399ff0f198c6d40a31db156cabfe"),
]


@pytest.mark.parametrize("counter,keystream", SP800_38A_CTR_BLOCKS)
def test_aes128_sp800_38a_ctr_counter_blocks(counter, keystream):
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    assert Aes128(key).encrypt_block(bytes.fromhex(counter)).hex() == keystream


def test_sbox_matches_its_algebraic_definition():
    # The oracle derives its S-box from the GF(2^8) inverse and the
    # affine map; the table SubBytes translates through must agree.
    assert crypto._SBOX == TEXTBOOK_SBOX


def test_aes_key_and_block_sizes_enforced():
    with pytest.raises(ValueError):
        Aes128(b"short")
    with pytest.raises(ValueError):
        Aes128(KEY).encrypt_block(b"short")
    with pytest.raises(ValueError):
        aes_ctr_transform(b"short", 1, b"data")


def test_ctr_matches_textbook_oracle_at_block_edges():
    for nonce in (0, 7, (1 << 64) - 1):
        for length in (0, 1, 15, 16, 17, 1396):
            data = bytes((i * 7 + length) & 0xFF for i in range(length))
            assert aes_ctr_transform(KEY, nonce, data) == \
                textbook_ctr_transform(KEY, nonce, data)


# Lengths around the one boundary the row-sliced state has: a block
# counter's low byte is row 3 of column 3 and its next byte row 2, so
# 256 blocks (4,096 B) is the last count that leaves row 2's counter byte
# zero in every block and 257 blocks (4,097 to 4,112 B) the first that
# sets it.  One block, two, 255 and a 9,000-byte jumbo payload ride along.
LANE_BOUNDARY_LENGTHS = (16, 32, 255 * 16, 4096, 4097, 4112, 9000)


@pytest.mark.parametrize("length", LANE_BOUNDARY_LENGTHS)
def test_ctr_matches_textbook_oracle_at_lane_boundaries(length):
    data = bytes((i * 31 + 7) & 0xFF for i in range(length))
    for nonce in (1, 12345, (1 << 64) - 1):
        assert aes_ctr_transform(KEY, nonce, data) == \
            textbook_ctr_transform(KEY, nonce, data)


def test_ctr_lanes_are_encrypt_block_of_each_counter():
    # encrypt_block is the lane core at n = 1: every lane of a 257-block
    # keystream must be the single-block cipher of its own counter block.
    nonce = 0x0123456789ABCDEF
    keystream = aes_ctr_transform(KEY, nonce, bytes(257 * 16))
    cipher = Aes128(KEY)
    oracle = TextbookAes128(KEY)
    for k in (0, 1, 254, 255, 256):
        counter = nonce.to_bytes(8, "big") + k.to_bytes(8, "big")
        lane = keystream[16 * k : 16 * k + 16]
        assert cipher.encrypt_block(counter) == lane
        assert oracle.encrypt_block(counter) == lane


def test_key_schedule_memo_is_bounded_and_stays_correct():
    bound = crypto.KEY_SCHEDULE_CACHE_SIZE
    keys = [bytes([i]) * 16 for i in range(bound + 1)]
    data = b"memo" * 9
    first = [aes_ctr_transform(key, 3, data) for key in keys]
    info = crypto._expand_key.cache_info()
    assert info.maxsize == bound and info.currsize <= bound
    # keys[0] was evicted by the bound+1st key: re-expansion is correct,
    # and so is every hit on the way.
    assert [aes_ctr_transform(key, 3, data) for key in keys] == first
    assert first[0] == textbook_ctr_transform(keys[0], 3, data)
    assert first[-1] == textbook_ctr_transform(keys[-1], 3, data)
    assert crypto._expand_key.cache_info().currsize <= bound


def test_ctr_is_involutive_and_keystream_differs_by_nonce():
    data = b"the quick brown fox jumps over the lazy dog"
    enc1 = aes_ctr_transform(KEY, 1, data)
    enc2 = aes_ctr_transform(KEY, 2, data)
    assert enc1 != data
    assert enc1 != enc2
    assert aes_ctr_transform(KEY, 1, enc1) == data


def test_ctr_handles_non_block_multiple():
    data = b"x" * 17
    assert aes_ctr_transform(KEY, 5, aes_ctr_transform(KEY, 5, data)) == data


def test_ctr_nonce_range():
    with pytest.raises(ValueError):
        aes_ctr_transform(KEY, 1 << 64, b"data")
    with pytest.raises(ValueError):
        aes_ctr_transform(KEY, -1, b"data")


# Profiler events ("call" + "c_call") of one aes_ctr_keystreams pass over
# n one-block spans: the whole-state core before the row layout made 55,
# 73 and 953 at 1, 10 and 450 spans; the budget is those plus 5.  The
# lab's traced flash_crowd_des gate (< 258 calls per packet, 250.53 at
# seed 1) has about 7 calls of headroom, and a cipher that converts the
# state row by row makes four times the conversion calls per round, so
# it fails here.
PASS_CALL_BUDGET = {1: 60, 10: 78, 450: 958}


def _pass_calls(spans):
    crypto.aes_ctr_keystreams(KEY, spans)  # the key schedule is memoised
    events = []

    def profile(frame, event, arg):
        if event == "call" or (event == "c_call" and arg is not sys.setprofile):
            events.append(event)

    sys.setprofile(profile)
    try:
        crypto.aes_ctr_keystreams(KEY, spans)
    finally:
        sys.setprofile(None)
    return len(events)


@pytest.mark.parametrize("spans", sorted(PASS_CALL_BUDGET))
def test_keystream_pass_stays_within_its_call_budget(spans):
    assert _pass_calls([(i, 16) for i in range(spans)]) <= PASS_CALL_BUDGET[spans]


def test_icv_is_keyed_and_truncated():
    icv = compute_icv(b"k1", b"payload")
    assert len(icv) == 12
    assert icv != compute_icv(b"k2", b"payload")
    assert icv == compute_icv(b"k1", b"payload")


# --------------------------------------------------------------------- AH
def test_insert_ah_structure():
    pkt = build_packet(size=120, payload=b"hello")
    original_proto = pkt.ipv4.protocol
    insert_ah(pkt, spi=0xABCD, seq=7, icv_key=KEY)
    assert pkt.has_ah
    assert pkt.ipv4.protocol == 51
    ah = pkt.ah
    assert ah.next_header == original_proto
    assert ah.spi == 0xABCD
    assert ah.seq == 7
    assert ah.payload_len == AhView.HEADER_LEN // 4 - 2
    assert pkt.wire_len == 120 + AhView.HEADER_LEN
    assert pkt.ipv4.verify_checksum()
    # The transport header remains reachable through the AH.
    assert pkt.tcp.dst_port == 80


def test_ah_roundtrip_restores_original_bytes():
    pkt = build_packet(size=120, payload=b"hello")
    original = bytes(pkt.buf)
    insert_ah(pkt, spi=1, seq=1, icv_key=KEY)
    assert bytes(pkt.buf) != original
    remove_ah(pkt)
    assert bytes(pkt.buf) == original
    assert pkt.wire_len == 120


def test_ah_verify_detects_tampering():
    pkt = build_packet(size=120, payload=b"hello")
    insert_ah(pkt, spi=1, seq=1, icv_key=KEY)
    assert verify_ah(pkt, KEY)
    pkt.buf[-1] ^= 0x01
    assert not verify_ah(pkt, KEY)
    with pytest.raises(ValueError):
        remove_ah(pkt, KEY, verify=True)


def test_ah_verify_covers_addresses():
    pkt = build_packet(size=120, payload=b"hello")
    insert_ah(pkt, spi=1, seq=1, icv_key=KEY)
    pkt.ipv4.src_ip = "9.9.9.9"
    assert not verify_ah(pkt, KEY)


@pytest.mark.parametrize("index", range(AhView.ICV_LEN))
def test_ah_verify_rejects_a_one_bit_flip_in_each_icv_byte(index):
    pkt = build_packet(size=120, payload=b"hello")
    insert_ah(pkt, spi=1, seq=1, icv_key=KEY)
    icv = pkt.ah.icv
    assert verify_ah(pkt, KEY)
    for bit in range(8):
        flipped = bytearray(icv)
        flipped[index] ^= 1 << bit
        pkt.ah.icv = bytes(flipped)
        assert not verify_ah(pkt, KEY)
    pkt.ah.icv = icv
    assert verify_ah(pkt, KEY)


def test_ah_verify_compares_in_constant_time(monkeypatch):
    calls = []

    def compare_digest(a, b):
        calls.append((a, b))
        return a == b

    monkeypatch.setattr(ah_module.hmac, "compare_digest", compare_digest)
    pkt = build_packet(size=120, payload=b"hello")
    insert_ah(pkt, spi=1, seq=1, icv_key=KEY)
    assert verify_ah(pkt, KEY)
    assert calls == [(pkt.ah.icv, pkt.ah.icv)]


def test_double_insert_rejected():
    pkt = build_packet(size=120)
    insert_ah(pkt, spi=1, seq=1, icv_key=KEY)
    with pytest.raises(ValueError):
        insert_ah(pkt, spi=2, seq=2, icv_key=KEY)


@pytest.mark.parametrize("spi,seq", [(1 << 32, 1), (1, 1 << 32), (-1, 1)])
def test_insert_ah_rejects_out_of_range_fields_before_splicing(spi, seq):
    pkt = build_packet(size=120)
    original = bytes(pkt.buf)
    with pytest.raises(ValueError):
        insert_ah(pkt, spi=spi, seq=seq, icv_key=KEY)
    assert bytes(pkt.buf) == original and pkt.wire_len == 120


def test_remove_without_ah_rejected():
    pkt = build_packet(size=120)
    with pytest.raises(ValueError):
        remove_ah(pkt)
    assert not verify_ah(pkt, KEY)


# ------------------------------------------------------ burst keystreams
MIXED_LENGTHS = (0, 1, 15, 16, 17, 4096, 4112, 9000)


@functools.lru_cache(maxsize=None)
def _textbook_stream(nonce, length):
    return textbook_ctr_transform(KEY, nonce, bytes(length))


@pytest.mark.parametrize("count", (1, 2, 33))
def test_keystreams_match_textbook_message_by_message(count):
    nonces = (0, (1 << 64) - 1)
    for shift in range(len(MIXED_LENGTHS)):
        spans = [(nonces[i % 2], MIXED_LENGTHS[(i + shift) % len(MIXED_LENGTHS)])
                 for i in range(count)]
        streams = crypto.aes_ctr_keystreams(KEY, spans)
        assert len(streams) == count
        for (nonce, length), stream in zip(spans, streams):
            assert stream == _textbook_stream(nonce, length)


def test_keystreams_of_no_message_and_of_empty_messages():
    assert crypto.aes_ctr_keystreams(KEY, []) == []
    assert crypto.aes_ctr_keystreams(KEY, [(3, 0), (4, 0)]) == [b"", b""]


def test_ctr_transform_is_the_one_message_keystream():
    data = bytes(range(40))
    (stream,) = crypto.aes_ctr_keystreams(KEY, [(9, 40)])
    assert aes_ctr_transform(KEY, 9, data) == bytes(a ^ b for a, b in zip(data, stream))


@pytest.mark.parametrize("bad", (1 << 64, -1))
@pytest.mark.parametrize("where", (0, 1, 2))
def test_keystreams_reject_any_out_of_range_nonce_before_lane_work(
        monkeypatch, bad, where):
    def no_lanes(*args):
        raise AssertionError("lane work began before the nonces were checked")

    monkeypatch.setattr(crypto, "_encrypt_lanes", no_lanes)
    spans = [(1, 16), (2, 100), (3, 9000)]
    spans[where] = (bad, spans[where][1])
    with pytest.raises(ValueError):
        crypto.aes_ctr_keystreams(KEY, spans)
