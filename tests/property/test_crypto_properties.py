"""Property-based tests for AES, CTR mode, AH, and the checksum.

The lane-parallel core in ``repro.net.crypto`` is checked against the byte-wise
FIPS-197 transcription in ``tests/support/aes_textbook.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    Aes128,
    aes_ctr_keystreams,
    aes_ctr_transform,
    build_packet,
    insert_ah,
    internet_checksum,
    remove_ah,
    verify_ah,
)
from tests.support.aes_textbook import TextbookAes128, textbook_ctr_transform

keys = st.binary(min_size=16, max_size=16)
blocks = st.binary(min_size=16, max_size=16)
nonces = st.one_of(st.sampled_from([0, (1 << 64) - 1]), st.integers(0, (1 << 64) - 1))
# Block edges, the largest DC-mix payload, and anything in between.
payloads = st.one_of(
    st.sampled_from([0, 1, 15, 16, 17, 1396]).flatmap(
        lambda n: st.binary(min_size=n, max_size=n)),
    st.binary(max_size=300),
)


@settings(max_examples=25)
@given(key=keys, block=blocks)
def test_encrypt_block_matches_textbook_and_inverts(key, block):
    oracle = TextbookAes128(key)
    ciphertext = Aes128(key).encrypt_block(block)
    assert ciphertext == oracle.encrypt_block(block)
    assert oracle.decrypt_block(ciphertext) == block


@settings(max_examples=40, deadline=None)
@given(key=keys, nonce=nonces, data=payloads,
       wrap=st.sampled_from([bytes, bytearray, memoryview]))
def test_ctr_matches_textbook_oracle(key, nonce, data, wrap):
    assert aes_ctr_transform(key, nonce, wrap(data)) == \
        textbook_ctr_transform(key, nonce, data)


# One burst's messages: block edges, lane-count edges, a jumbo payload.
spans = st.lists(
    st.tuples(nonces, st.one_of(st.sampled_from([0, 1, 15, 16, 17, 4096, 4112, 9000]),
                                st.integers(0, 300))),
    min_size=1, max_size=33)


@settings(max_examples=15, deadline=None)
@given(key=keys, spans=spans)
def test_burst_keystreams_match_textbook_message_by_message(key, spans):
    streams = aes_ctr_keystreams(key, spans)
    assert [len(stream) for stream in streams] == [length for _, length in spans]
    for (nonce, length), stream in zip(spans, streams):
        assert stream == textbook_ctr_transform(key, nonce, bytes(length))


@settings(max_examples=25)
@given(key=keys, nonce=st.integers(0, (1 << 64) - 1), data=st.binary(max_size=200))
def test_ctr_involution(key, nonce, data):
    once = aes_ctr_transform(key, nonce, data)
    assert aes_ctr_transform(key, nonce, once) == data
    assert len(once) == len(data)


@settings(max_examples=25)
@given(key=keys, data=st.binary(min_size=1, max_size=64))
def test_ctr_changes_nonempty_data(key, data):
    # A keystream XOR leaves data unchanged only with probability 2^-8n.
    transformed = aes_ctr_transform(key, 7, data)
    if transformed == data:
        # Astronomically unlikely; tolerate only for 1-byte inputs.
        assert len(data) == 1


@settings(max_examples=20)
@given(data=st.binary(max_size=64))
def test_checksum_of_data_plus_checksum_is_zero(data):
    # Appending the one's-complement sum yields a verifying message
    # (even-length data only, as checksums are 16-bit aligned).
    if len(data) % 2:
        data += b"\x00"
    checksum = internet_checksum(data)
    message = data + bytes([checksum >> 8, checksum & 0xFF])
    assert internet_checksum(message) == 0


@settings(max_examples=20)
@given(key=keys, spi=st.integers(0, 0xFFFFFFFF), seq=st.integers(0, 0xFFFFFFFF),
       size=st.integers(64, 512))
def test_ah_insert_remove_roundtrip(key, spi, seq, size):
    pkt = build_packet(size=size)
    original = bytes(pkt.buf)
    insert_ah(pkt, spi=spi, seq=seq, icv_key=key)
    assert verify_ah(pkt, key)
    assert pkt.ah.spi == spi and pkt.ah.seq == seq
    remove_ah(pkt)
    assert bytes(pkt.buf) == original


@settings(max_examples=15)
@given(key=keys, flip=st.integers(0, 63), size=st.integers(120, 300))
def test_ah_detects_any_post_ah_bitflip(key, flip, size):
    pkt = build_packet(size=size, payload=b"p" * 32)
    insert_ah(pkt, spi=1, seq=1, icv_key=key)
    offset = len(pkt.buf) - 1 - (flip % 32)
    pkt.buf[offset] ^= 0xFF
    assert not verify_ah(pkt, key)
