"""The signed wire frame: HMAC round trips, rejection taxonomy, magic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.codec import (
    CONTROL_MAGIC,
    SIGNATURE_BYTES,
    SIGNED_MAGIC,
    V2_MAGIC,
    WIRE_FORMAT_V2,
    AuthenticationError,
    CodecError,
    decode_frame,
    decode_signed_frame,
    encode_message,
    encode_signed_message,
    is_signed_frame,
)
from repro.core.descriptor import NodeDescriptor

KEY = b"cluster-secret"
VIEW = [NodeDescriptor("a", 0), NodeDescriptor(7, 3)]


class TestRoundTrip:
    def test_signed_round_trip_reports_v2(self):
        frame = encode_signed_message(VIEW, KEY)
        got_version, payload = decode_signed_frame(frame, KEY)
        assert got_version == WIRE_FORMAT_V2
        assert payload == VIEW

    def test_inner_frame_is_v2(self):
        inner = encode_signed_message(VIEW, KEY)[1 + SIGNATURE_BYTES :]
        assert inner == encode_message(VIEW)
        assert inner[0] == V2_MAGIC

    def test_unknown_version_rejected_at_encode(self):
        with pytest.raises(CodecError):
            encode_signed_message(VIEW, KEY, version=1)

    def test_signed_frame_shape(self):
        frame = encode_signed_message(VIEW, KEY)
        assert frame[0] == SIGNED_MAGIC
        assert is_signed_frame(frame)
        inner = frame[1 + SIGNATURE_BYTES :]
        _, payload = decode_frame(inner)
        assert payload == VIEW

    def test_magic_bytes_mutually_unmistakable(self):
        assert len({SIGNED_MAGIC, V2_MAGIC, CONTROL_MAGIC}) == 3
        assert not is_signed_frame(encode_message(VIEW))
        assert not is_signed_frame(b"")

    def test_empty_view_signs(self):
        frame = encode_signed_message([], KEY)
        assert decode_signed_frame(frame, KEY)[1] == []


class TestRejection:
    def test_wrong_key_is_authentication_error(self):
        frame = encode_signed_message(VIEW, KEY)
        with pytest.raises(AuthenticationError):
            decode_signed_frame(frame, b"other-secret")

    def test_unsigned_frame_is_authentication_error(self):
        with pytest.raises(AuthenticationError):
            decode_signed_frame(encode_message(VIEW), KEY)

    def test_truncated_signature_is_authentication_error(self):
        frame = encode_signed_message(VIEW, KEY)
        with pytest.raises(AuthenticationError):
            decode_signed_frame(frame[: 1 + SIGNATURE_BYTES - 2], KEY)

    @pytest.mark.parametrize("index", [1, 8, 1 + SIGNATURE_BYTES])
    def test_bit_flips_are_authentication_errors(self, index):
        frame = bytearray(encode_signed_message(VIEW, KEY))
        frame[index] ^= 0x01
        with pytest.raises(AuthenticationError):
            decode_signed_frame(bytes(frame), KEY)

    def test_authentication_error_is_a_codec_error(self):
        # One except-clause catches both, but keyed daemons can (and do)
        # count the two classes separately.
        assert issubclass(AuthenticationError, CodecError)

    def test_unkeyed_decode_rejects_signed_frames(self):
        frame = encode_signed_message(VIEW, KEY)
        with pytest.raises(CodecError, match="verification key"):
            decode_frame(frame)

    @pytest.mark.parametrize("key", [b"", "secret", None, 42])
    def test_bad_keys_rejected_at_encode(self, key):
        with pytest.raises(CodecError):
            encode_signed_message(VIEW, key)

    def test_empty_data_is_authentication_error(self):
        with pytest.raises(AuthenticationError):
            decode_signed_frame(b"", KEY)


@given(
    view=st.lists(
        st.builds(
            NodeDescriptor,
            st.one_of(st.text(max_size=20), st.integers(0, 1 << 40)),
            st.integers(0, 1 << 30),
        ),
        max_size=10,
    ),
    key=st.binary(min_size=1, max_size=64),
)
def test_signed_round_trip_property(view, key):
    frame = encode_signed_message(view, key)
    assert decode_signed_frame(frame, key)[1] == view


@given(data=st.binary(max_size=200), key=st.binary(min_size=1, max_size=16))
def test_arbitrary_bytes_never_raise_non_codec_errors(data, key):
    try:
        decode_signed_frame(data, key)
    except CodecError:
        pass  # AuthenticationError included
