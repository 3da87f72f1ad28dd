"""The flow template against the per-packet ``build_packet`` it replaced.

``FlowGenerator.next_packet`` stores a flow's 54 header bytes from a
template, packs the length and identification words and folds the
checksum from a per-flow base; ``tests/support/flowgen_reference.py`` is
the generator as it stood, re-deriving every header field by field.
Same seed, same arguments: both must produce the same frames, refuse the
same requests with the same words, and leave the RNG in the same state
after every packet -- and no two packets may share a buffer with each
other or with the template.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic import DATACENTER_MIX, FlowGenerator
from tests.support.flowgen_reference import ReferenceFlowGenerator

HEADERS = 54
#: Every size of the data-center mix, the edges of the legal range, the
#: first sizes with zero / one payload byte, and one under the headers.
SIZES = sorted({size for size, _ in DATACENTER_MIX.points}
               | {53, 54, 55, 64, 1500})


class _AnyOf:
    """A size "distribution" over arbitrary sizes (the real one refuses
    anything under 64 B): one RNG draw per sample, like the real one."""

    def __init__(self, sizes):
        self.sizes = list(sizes)

    def sample(self, rng):
        return self.sizes[int(rng.random() * len(self.sizes))]


def _payload_fn(length):
    if length is None:
        return None
    return lambda sequence: bytes((sequence + i) & 0xFF for i in range(length))


def _attempt(generator):
    try:
        return generator.next_packet(), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


def _same_defaults(got, want):
    for attr in ("wire_len", "nil", "ingress_us", "meta", "is_header_copy",
                 "recorder"):
        assert getattr(got, attr) == getattr(want, attr), attr


@given(
    num_flows=st.integers(1, 600),
    popularity=st.sampled_from(["uniform", "zipf"]),
    seed=st.integers(0, 2**31),
    pool=st.one_of(st.none(),
                   st.lists(st.sampled_from(SIZES), min_size=1, max_size=4)),
    payload=st.sampled_from(["none", "fits", "too_long"]),
    before_wrap=st.one_of(st.none(), st.integers(0, 30)),
    count=st.integers(1, 40),
)
@settings(max_examples=150, deadline=None)
def test_template_frames_equal_the_per_packet_build(
        num_flows, popularity, seed, pool, payload, before_wrap, count):
    sizes = DATACENTER_MIX if pool is None else _AnyOf(pool)
    smallest = 64 if pool is None else min(pool)
    # "fits" fills the smallest frame exactly; "too_long" overflows it
    # by one byte and still fits every larger size in the pool.
    length = {"none": None, "fits": max(0, smallest - HEADERS),
              "too_long": max(0, smallest - HEADERS) + 1}[payload]
    kwargs = dict(num_flows=num_flows, sizes=sizes, seed=seed,
                  popularity=popularity, payload_fn=_payload_fn(length))
    template, reference = FlowGenerator(**kwargs), ReferenceFlowGenerator(**kwargs)
    if before_wrap is not None:
        # Identification runs through 65,535 -> 0 inside the stream.
        template._sequence = reference._sequence = 0xFFFF - before_wrap
    previous = None
    refused = 0
    for _ in range(count):
        want, want_error = _attempt(reference)
        got, got_error = _attempt(template)
        assert got_error == want_error
        assert template._sequence == reference._sequence
        assert template._rng.getstate() == reference._rng.getstate()
        if want is None:
            refused += 1
            continue
        assert bytes(got.buf) == bytes(want.buf)
        assert isinstance(got.buf, bytearray)
        assert got.ipv4.verify_checksum()
        assert got.ipv4.identification == template._sequence & 0xFFFF
        _same_defaults(got, want)
        if previous is not None:
            # Building this packet did not reach into the last one...
            assert previous.buf == b"\xAA" * len(previous.buf)
        # ...and scribbling over this one reaches neither the template
        # (the flow's later packets still match) nor any other packet.
        got.buf[:] = b"\xAA" * len(got.buf)
        previous = got
    assert len(template._templates) <= num_flows
    if payload == "too_long" and pool is not None and len(set(pool)) == 1:
        assert refused == count
    if payload != "too_long" and smallest >= HEADERS:
        assert refused == 0


def test_under_the_headers_and_overlong_payload_are_refused_in_build_packets_words():
    short = FlowGenerator(num_flows=3, sizes=_AnyOf([53]))
    error = _attempt(short)[1]
    assert error == (ValueError, "requested size 53 smaller than headers (54 B)")
    assert error == _attempt(ReferenceFlowGenerator(num_flows=3, sizes=_AnyOf([53])))[1]
    # The refusal came after the flow pick, the sequence step and the size
    # draw, as it always did: the stream resumes where the reference does.
    assert short._sequence == 1

    long = FlowGenerator(num_flows=3, sizes=_AnyOf([64]), payload_fn=_payload_fn(11))
    error = _attempt(long)[1]
    assert error == (ValueError, "payload does not fit in requested size")
    assert error == _attempt(ReferenceFlowGenerator(
        num_flows=3, sizes=_AnyOf([64]), payload_fn=_payload_fn(11)))[1]


def test_header_summing_to_a_multiple_of_0xffff_checksums_to_zero():
    """RFC 1071's "negative zero": when the header words sum to a
    non-zero multiple of 0xFFFF the fold is 0xFFFF and the checksum
    field 0x0000 -- a bare ``% 0xFFFF`` would store 0xFFFF."""
    probe = ReferenceFlowGenerator(num_flows=1).next_packet().ipv4
    # words(ident) = K + ident and checksum = 0xFFFF - fold(words), so the
    # identification that makes the words a multiple of 0xFFFF is:
    ident = (probe.checksum + probe.identification) % 0xFFFF
    template, reference = FlowGenerator(num_flows=1), ReferenceFlowGenerator(num_flows=1)
    template._sequence = reference._sequence = (ident - 1) % 0x10000
    got, want = template.next_packet(), reference.next_packet()
    assert want.ipv4.identification == ident and want.ipv4.checksum == 0x0000
    assert bytes(got.buf) == bytes(want.buf)
    assert got.ipv4.checksum == 0x0000 and got.ipv4.verify_checksum()
    # One identification further the sum is 1 mod 0xFFFF: 0xFFFE.
    assert template.next_packet().ipv4.checksum == 0xFFFE


def test_templates_are_built_on_first_pick_and_bounded_by_num_flows():
    generator = FlowGenerator(num_flows=5)
    assert generator._templates == {}
    generator.packets(3)
    assert sorted(generator._templates) == [0, 1, 2]
    generator.packets(40)
    assert sorted(generator._templates) == [0, 1, 2, 3, 4]
    header, _ = generator._templates[0]
    assert len(header) == HEADERS and isinstance(header, bytes)
