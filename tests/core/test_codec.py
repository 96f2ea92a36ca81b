"""Unit and property tests for the wire codec."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.codec import (
    MAX_MESSAGE_BYTES,
    SIGNED_MAGIC,
    V2_MAGIC,
    WIRE_FORMAT_V2,
    CodecError,
    decode_frame,
    decode_message,
    encode_message,
)
from repro.core.descriptor import NodeDescriptor


def _json_frame(body) -> bytes:
    """A JSON view document, the shape of the retired v1 wire format."""
    return json.dumps(body, separators=(",", ":")).encode()


class TestMessageCodec:
    def test_round_trip(self):
        view = [NodeDescriptor("a", 0), NodeDescriptor(7, 3)]
        assert decode_message(encode_message(view)) == view

    def test_integer_addresses(self):
        view = [NodeDescriptor(42, 0), NodeDescriptor(-5, 9)]
        assert decode_message(encode_message(view)) == view

    def test_empty_message(self):
        assert decode_message(encode_message([])) == []

    def test_default_version_is_v2(self):
        data = encode_message([])
        assert data[0] == V2_MAGIC
        assert data[1] == WIRE_FORMAT_V2
        assert decode_frame(data)[0] == WIRE_FORMAT_V2

    def test_unserializable_address_rejected(self):
        with pytest.raises(CodecError):
            encode_message([NodeDescriptor(("tuple", "addr"), 1)])

    @pytest.mark.parametrize(
        "body",
        [
            {"v": 1, "view": []},
            {"v": 1, "view": [["a", 1]]},
            {"v": 999, "view": []},
            {"v": 1},
            {"v": 1, "view": [[]]},
            {"v": 1, "view": [["a"]]},
            {"v": 1, "view": [["a", 1, 2]]},
            {"v": 1, "view": [["a", "not-an-int"]]},
            {"v": 1, "view": [["a", -1]]},
            {"v": 1, "view": [[None, 1]]},
            {"v": 1, "view": ["not-a-list"]},
            {"v": 1, "view": [{"address": "a"}]},
            [1, 2, 3],
        ],
    )
    def test_json_documents_rejected(self, body):
        # Only v2 frames exist: a JSON document -- well-formed v1 or not --
        # fails on its first byte.
        with pytest.raises(CodecError, match="magic"):
            decode_message(_json_frame(body))

    def test_garbage_rejected(self):
        with pytest.raises(CodecError):
            decode_message(b"\xff\xfe not json")
        with pytest.raises(CodecError):
            decode_message(b"")

    def test_oversized_message_rejected(self):
        data = b" " * (2 << 20)
        with pytest.raises(CodecError):
            decode_message(data)

    def test_decoded_descriptors_are_independent(self):
        view = [NodeDescriptor("a", 1)]
        decoded = decode_message(encode_message(view))
        decoded[0].hop_count = 99
        assert view[0].hop_count == 1


class TestBinaryCodec:
    def test_round_trip(self):
        view = [NodeDescriptor("10.0.0.1:9000", 0), NodeDescriptor(7, 3)]
        data = encode_message(view, version=WIRE_FORMAT_V2)
        assert decode_message(data) == view

    def test_magic_byte_leads_the_frame(self):
        data = encode_message([], version=WIRE_FORMAT_V2)
        assert data[0] == V2_MAGIC
        assert data[1] == WIRE_FORMAT_V2

    def test_decode_frame_reports_version(self):
        view = [NodeDescriptor("a", 1)]
        assert decode_frame(encode_message(view)) == (WIRE_FORMAT_V2, view)

    @pytest.mark.parametrize("version", [1, 3])
    def test_unknown_encode_version_rejected(self, version):
        with pytest.raises(CodecError):
            encode_message([], version=version)

    @pytest.mark.parametrize("first", [0x00, 0x7B, 0x9C, 0xFF])
    def test_unknown_first_byte_rejected(self, first):
        data = bytearray(encode_message([NodeDescriptor(1, 1)]))
        data[0] = first
        with pytest.raises(CodecError, match="magic"):
            decode_frame(bytes(data))

    def test_signed_frame_needs_a_key(self):
        with pytest.raises(CodecError, match="verification key"):
            decode_frame(bytes((SIGNED_MAGIC,)) + b"\x00" * 20)

    def test_truncated_frames_rejected(self):
        view = [NodeDescriptor("node-1", 5), NodeDescriptor(42, 0)]
        data = encode_message(view, version=WIRE_FORMAT_V2)
        for cut in range(1, len(data)):
            with pytest.raises(CodecError):
                decode_message(data[:cut])

    def test_trailing_garbage_rejected(self):
        data = encode_message([NodeDescriptor(1, 1)], version=WIRE_FORMAT_V2)
        with pytest.raises(CodecError):
            decode_message(data + b"\x00")

    def test_unknown_address_tag_rejected(self):
        data = bytearray(
            encode_message([NodeDescriptor(1, 1)], version=WIRE_FORMAT_V2)
        )
        data[4] = 99  # the entry's tag byte
        with pytest.raises(CodecError):
            decode_message(bytes(data))

    def test_unsupported_binary_version_rejected(self):
        data = bytearray(encode_message([], version=WIRE_FORMAT_V2))
        data[1] = 9
        with pytest.raises(CodecError):
            decode_message(bytes(data))

    def test_huge_int_address_rejected(self):
        with pytest.raises(CodecError):
            encode_message(
                [NodeDescriptor(1 << 70, 0)], version=WIRE_FORMAT_V2
            )

    def test_huge_hop_count_rejected(self):
        with pytest.raises(CodecError):
            encode_message(
                [NodeDescriptor("a", 1 << 32)], version=WIRE_FORMAT_V2
            )


class TestEncodeSizeCap:
    def test_oversized_address_rejected_on_encode(self):
        view = [NodeDescriptor("x" * (MAX_MESSAGE_BYTES + 1), 0)]
        with pytest.raises(CodecError):
            encode_message(view)

    def test_oversized_v2_rejected_on_encode(self):
        # Each entry stays under the per-address limit; the total does not.
        view = [NodeDescriptor(f"{i:05d}" + "x" * 40, 0) for i in range(30_000)]
        with pytest.raises(CodecError):
            encode_message(view, version=WIRE_FORMAT_V2)


addresses_st = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(min_size=0, max_size=30),
)

views_st = st.lists(
    st.builds(
        NodeDescriptor,
        addresses_st,
        st.integers(min_value=0, max_value=10_000),
    ),
    max_size=50,
)


@given(views_st)
def test_message_round_trip_property(view):
    assert decode_message(encode_message(view)) == view


@given(views_st)
def test_round_trip_property_reports_v2(view):
    decoded_version, decoded = decode_frame(encode_message(view))
    assert decoded_version == WIRE_FORMAT_V2
    assert decoded == view


@given(st.binary(max_size=300))
def test_arbitrary_bytes_never_raise_non_codec_errors(data):
    # Malformed input of any shape -- unknown first byte, bad struct
    # fields, bad UTF-8 addresses -- must surface as CodecError only.
    try:
        decode_frame(data)
    except CodecError:
        pass
