"""Control-frame codec and message-vocabulary tests."""

import json
import struct

import pytest

from repro.core.codec import (
    CONTROL_MAGIC,
    CONTROL_VERSION,
    MAX_CONTROL_BYTES,
    CodecError,
    decode_control,
    encode_control,
    is_control_frame,
)
from repro.control.messages import (
    KIND_HEARTBEAT,
    KIND_JOIN,
    KIND_NAMES,
    KIND_SAMPLE,
    MAX_SAMPLE,
    heartbeat_body,
    join_body,
    leave_body,
    parse_address_body,
    parse_join,
    parse_sample,
    parse_stats,
    sample_body,
)


class TestControlCodec:
    def test_round_trip(self):
        frame = encode_control(KIND_JOIN, {"address": "a:1", "count": 5}, 42)
        decoded = decode_control(frame)
        assert decoded.version == CONTROL_VERSION
        assert decoded.kind == KIND_JOIN
        assert decoded.request_id == 42
        assert decoded.body == {"address": "a:1", "count": 5}

    def test_is_control_frame_sniffs_magic(self):
        frame = encode_control(KIND_HEARTBEAT, {"address": "a:1"})
        assert is_control_frame(frame)
        assert not is_control_frame(b"")
        assert not is_control_frame(b'{"view": []}')  # a bare JSON document

    def test_request_id_bounds(self):
        encode_control(1, {}, 0)
        encode_control(1, {}, (1 << 32) - 1)
        for bad in (-1, 1 << 32, None, 1.5, True):
            with pytest.raises(CodecError):
                encode_control(1, {}, bad)

    def test_kind_bounds(self):
        for bad in (-1, 256, None, "join", True):
            with pytest.raises(CodecError):
                encode_control(bad, {})

    def test_body_must_be_object(self):
        for bad in ([], "x", 3, None):
            with pytest.raises(CodecError):
                encode_control(1, bad)

    def test_oversized_rejected_on_encode(self):
        with pytest.raises(CodecError):
            encode_control(1, {"blob": "x" * MAX_CONTROL_BYTES})

    def test_oversized_rejected_on_decode(self):
        with pytest.raises(CodecError):
            decode_control(b"\x9c" + b"\x00" * MAX_CONTROL_BYTES)

    def test_truncated_header_rejected(self):
        frame = encode_control(1, {})
        with pytest.raises(CodecError):
            decode_control(frame[:3])

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_control(1, {}))
        frame[0] = 0x97  # the gossip v2 magic, not the control magic
        with pytest.raises(CodecError):
            decode_control(bytes(frame))

    def test_unknown_version_rejected(self):
        frame = bytearray(encode_control(1, {}))
        frame[1] = CONTROL_VERSION + 1
        with pytest.raises(CodecError):
            decode_control(bytes(frame))

    def test_non_object_json_body_rejected(self):
        header = struct.Struct("!BBBI").pack(CONTROL_MAGIC, CONTROL_VERSION, 1, 0)
        with pytest.raises(CodecError):
            decode_control(header + b"[1, 2]")
        with pytest.raises(CodecError):
            decode_control(header + b"not json at all")

    def test_deterministic_encoding(self):
        a = encode_control(2, {"b": 1, "a": 2}, 7)
        b = encode_control(2, {"a": 2, "b": 1}, 7)
        assert a == b  # sorted keys, compact separators


class TestBodies:
    def test_join_round_trip(self):
        address, count = parse_join(join_body("n:9", 12))
        assert (address, count) == ("n:9", 12)

    def test_join_count_clamped(self):
        _, count = parse_join(join_body("n:9", 10_000))
        assert count == MAX_SAMPLE

    def test_join_count_defaults_when_absent(self):
        _, count = parse_join({"address": "n:9"})
        assert count == MAX_SAMPLE

    def test_join_rejects_bad_fields(self):
        with pytest.raises(CodecError):
            parse_join({"address": "", "count": 3})
        with pytest.raises(CodecError):
            parse_join({"count": 3})
        for bad_count in (0, -1, "5", 1.5, True):
            with pytest.raises(CodecError):
                parse_join({"address": "n:9", "count": bad_count})

    def test_sample_round_trip(self):
        peers, ttl = parse_sample(sample_body(["a:1", "b:2"], 7.5))
        assert peers == ["a:1", "b:2"]
        assert ttl == 7.5

    def test_sample_rejects_bad_fields(self):
        with pytest.raises(CodecError):
            parse_sample({"peers": "a:1", "ttl": 5})
        with pytest.raises(CodecError):
            parse_sample({"peers": ["a:1"], "ttl": 0})
        with pytest.raises(CodecError):
            parse_sample({"peers": [""], "ttl": 5})
        with pytest.raises(CodecError):
            parse_sample({"peers": [3], "ttl": 5})

    def test_heartbeat_and_leave_addresses(self):
        assert parse_address_body(heartbeat_body("n:9")) == "n:9"
        assert parse_address_body(leave_body("n:9")) == "n:9"
        with pytest.raises(CodecError):
            parse_address_body({})

    def test_stats_optional_and_validated(self):
        assert parse_stats({"address": "n:9"}) is None
        stats = parse_stats(heartbeat_body("n:9", {"cycles": 3, "rate": 2.0}))
        assert stats == {"cycles": 3, "rate": 2}
        with pytest.raises(CodecError):
            parse_stats({"stats": [1, 2]})
        with pytest.raises(CodecError):
            parse_stats({"stats": {"cycles": "three"}})
        with pytest.raises(CodecError):
            parse_stats({"stats": {"flag": True}})

    def test_kind_names_cover_all_kinds(self):
        assert len(KIND_NAMES) == 6
        assert KIND_NAMES[KIND_SAMPLE] == "sample"
