"""Wire codec: serialize descriptors and view messages.

The simulation engines pass descriptor objects by reference, but a real
deployment ships views over the network (see :mod:`repro.net`).  Both
message kinds of the protocol skeleton (requests and replies are just
descriptor lists) travel in one format, **v2**: a struct-packed binary
frame (magic byte :data:`V2_MAGIC` + version byte + entry count + entry
list).  A frame whose first byte is not a known magic is a
:class:`CodecError`, which receivers count and drop.

A frame can additionally be wrapped in a **signed frame** (magic byte
:data:`SIGNED_MAGIC` + truncated HMAC-SHA256 tag + inner frame;
:func:`encode_signed_message` / :func:`decode_signed_frame`) when a
deployment shares a pre-distributed symmetric key -- the keyed daemon
drops unsigned and unverifiable datagrams, which shuts wire-level
descriptor forgery out entirely.

Addresses are serialized as-is when they are wire-native (str/int);
unsupported address types raise :class:`CodecError` rather than silently
producing undecodable bytes.  Size limits are enforced symmetrically: an
oversized message raises on *encode* (before it ever leaves the node) as
well as on decode.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import struct
from typing import List, NamedTuple, Tuple

from repro.core.descriptor import Address, NodeDescriptor
from repro.core.errors import ReproError

WIRE_FORMAT_V2 = 2
"""The binary struct-packed wire format, the only data-plane format."""

MAX_MESSAGE_BYTES = 1 << 20  # 1 MiB: a view message is a few KiB at most
"""Hard cap applied on both encode and decode."""

V2_MAGIC = 0x97
"""First byte of every v2 frame (outside printable ASCII)."""

_V2_HEADER = struct.Struct("!BBH")  # magic, version, entry count
_V2_INT_ENTRY = struct.Struct("!BqI")  # tag 0, int64 address, hop count
_V2_STR_HEAD = struct.Struct("!BH")  # tag 1, utf-8 byte length
_V2_HOPS = struct.Struct("!I")

_MAX_HOPS = (1 << 32) - 1
_MAX_STR_BYTES = (1 << 16) - 1
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


class CodecError(ReproError):
    """A message could not be encoded or decoded."""


class AuthenticationError(CodecError):
    """A signed frame failed authentication (bad or truncated tag).

    Distinct from plain :class:`CodecError` so receivers can count
    authentication failures separately from garbled frames -- the former
    are a security signal, the latter usually just noise."""


def _check_address(address: Address) -> Address:
    if isinstance(address, (str, int)) and not isinstance(address, bool):
        return address
    raise CodecError(
        f"address {address!r} is not wire-serializable (need str or int)"
    )


# -- v2: struct-packed binary ------------------------------------------------


def _encode_v2(descriptors: List[NodeDescriptor]) -> bytes:
    if len(descriptors) > 0xFFFF:
        raise CodecError(f"{len(descriptors)} descriptors exceed a v2 frame")
    parts = [_V2_HEADER.pack(V2_MAGIC, WIRE_FORMAT_V2, len(descriptors))]
    for descriptor in descriptors:
        address = _check_address(descriptor.address)
        hops = descriptor.hop_count
        if not 0 <= hops <= _MAX_HOPS:
            raise CodecError(f"hop count {hops} not encodable in v2")
        if isinstance(address, int):
            if not _INT64_MIN <= address <= _INT64_MAX:
                raise CodecError(
                    f"integer address {address} exceeds 64 bits"
                )
            parts.append(_V2_INT_ENTRY.pack(0, address, hops))
        else:
            raw = address.encode("utf-8")
            if len(raw) > _MAX_STR_BYTES:
                raise CodecError(
                    f"address of {len(raw)} utf-8 bytes exceeds v2 limit"
                )
            parts.append(_V2_STR_HEAD.pack(1, len(raw)))
            parts.append(raw)
            parts.append(_V2_HOPS.pack(hops))
    return b"".join(parts)


def _decode_v2(data: bytes) -> List[NodeDescriptor]:
    try:
        _, version, count = _V2_HEADER.unpack_from(data, 0)
    except struct.error as exc:
        raise CodecError(f"truncated v2 header: {exc}") from exc
    if version != WIRE_FORMAT_V2:
        raise CodecError(f"unsupported wire format version: {version}")
    offset = _V2_HEADER.size
    descriptors: List[NodeDescriptor] = []
    try:
        for _ in range(count):
            tag = data[offset]
            if tag == 0:
                _, address, hops = _V2_INT_ENTRY.unpack_from(data, offset)
                offset += _V2_INT_ENTRY.size
            elif tag == 1:
                _, length = _V2_STR_HEAD.unpack_from(data, offset)
                offset += _V2_STR_HEAD.size
                raw = data[offset : offset + length]
                if len(raw) != length:
                    raise CodecError("truncated v2 string address")
                address = raw.decode("utf-8")
                offset += length
                (hops,) = _V2_HOPS.unpack_from(data, offset)
                offset += _V2_HOPS.size
            else:
                raise CodecError(f"unknown v2 address tag: {tag}")
            descriptors.append(NodeDescriptor(address, hops))
    except (struct.error, IndexError) as exc:
        raise CodecError(f"truncated v2 frame: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CodecError(f"undecodable v2 address: {exc}") from exc
    if offset != len(data):
        raise CodecError(
            f"{len(data) - offset} trailing bytes after v2 frame"
        )
    return descriptors


# -- signed frames: HMAC-wrapped v2 ------------------------------------------
#
# A signed frame is one byte of magic, a truncated HMAC-SHA256 tag over
# the inner frame, then an ordinary v2 gossip frame.  The signature
# wraps the *transport bytes* only: protocol state and RNG consumption
# are untouched, which is what keeps a keyed live run byte-identical to
# the unkeyed one (and to the cycle engines).

SIGNED_MAGIC = 0x9E
"""First byte of every signed frame.

Outside printable ASCII and distinct from :data:`V2_MAGIC` and
:data:`CONTROL_MAGIC`, so the three frame families are mutually
unmistakable from their first byte."""

SIGNATURE_BYTES = 16
"""Truncated HMAC-SHA256 tag length.  128 bits of MAC strength -- far
beyond what a gossip overlay needs to reject forged descriptors."""

_SIGNED_OVERHEAD = 1 + SIGNATURE_BYTES


def _signature(key: bytes, inner: bytes) -> bytes:
    return hmac.new(key, inner, hashlib.sha256).digest()[:SIGNATURE_BYTES]


def is_signed_frame(data: bytes) -> bool:
    """Whether ``data`` starts like a signed frame (cheap demux check)."""
    return len(data) > 0 and data[0] == SIGNED_MAGIC


def encode_signed_message(
    descriptors: List[NodeDescriptor],
    key: bytes,
    version: int = WIRE_FORMAT_V2,
) -> bytes:
    """A view message wrapped in a truncated HMAC-SHA256 signature.

    The inner frame is exactly what :func:`encode_message` produces for
    the same arguments; signing is deterministic and draw-free.
    """
    if not isinstance(key, (bytes, bytearray)) or not key:
        raise CodecError("signing key must be non-empty bytes")
    inner = encode_message(descriptors, version=version)
    frame = bytes((SIGNED_MAGIC,)) + _signature(bytes(key), inner) + inner
    if len(frame) > MAX_MESSAGE_BYTES:
        raise CodecError(
            f"signed message of {len(frame)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte limit"
        )
    return frame


def decode_signed_frame(
    data: bytes, key: bytes
) -> Tuple[int, List[NodeDescriptor]]:
    """Verify and decode a signed frame; return ``(inner_version, view)``.

    Raises :class:`AuthenticationError` when the frame is not signed at
    all, is too short to carry a tag, or its tag does not verify
    (constant-time comparison); inner-frame defects raise plain
    :class:`CodecError` like :func:`decode_frame` would.
    """
    if not isinstance(key, (bytes, bytearray)) or not key:
        raise CodecError("verification key must be non-empty bytes")
    if len(data) > MAX_MESSAGE_BYTES:
        raise CodecError(f"message of {len(data)} bytes exceeds the limit")
    if not data or data[0] != SIGNED_MAGIC:
        raise AuthenticationError("frame is not signed")
    if len(data) < _SIGNED_OVERHEAD + 1:
        raise AuthenticationError("signed frame too short to verify")
    tag = bytes(data[1:_SIGNED_OVERHEAD])
    inner = bytes(data[_SIGNED_OVERHEAD:])
    if not hmac.compare_digest(tag, _signature(bytes(key), inner)):
        raise AuthenticationError("signed frame failed verification")
    return decode_frame(inner)


# -- public entry points -----------------------------------------------------


def encode_message(
    descriptors: List[NodeDescriptor],
    version: int = WIRE_FORMAT_V2,
) -> bytes:
    """A full view message (request or reply) as a v2 frame.

    ``version`` is the stamp written into the frame header; only
    :data:`WIRE_FORMAT_V2` exists.  Raises :class:`CodecError` for any
    other version and for messages that would exceed
    :data:`MAX_MESSAGE_BYTES` -- the cap is enforced on encode so an
    oversized frame is rejected before it ever reaches a socket.
    """
    if version != WIRE_FORMAT_V2:
        raise CodecError(f"unsupported wire format version: {version!r}")
    data = _encode_v2(descriptors)
    if len(data) > MAX_MESSAGE_BYTES:
        raise CodecError(
            f"encoded message of {len(data)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte limit"
        )
    return data


def decode_frame(data: bytes) -> Tuple[int, List[NodeDescriptor]]:
    """Decode a v2 message; return ``(version, view)``.

    Anything whose first byte is not :data:`V2_MAGIC` is a
    :class:`CodecError` -- including signed frames, which only
    :func:`decode_signed_frame` may open.
    """
    if len(data) > MAX_MESSAGE_BYTES:
        raise CodecError(f"message of {len(data)} bytes exceeds the limit")
    if not data:
        raise CodecError("empty message")
    if data[0] == V2_MAGIC:
        return WIRE_FORMAT_V2, _decode_v2(data)
    if data[0] == SIGNED_MAGIC:
        # An unkeyed receiver cannot verify a signed frame; refusing to
        # peek inside keeps "drop unverifiable traffic" the only policy.
        raise CodecError(
            "signed frame received without a verification key "
            "(use decode_signed_frame)"
        )
    raise CodecError(f"unknown frame magic byte: {data[0]:#x}")


def decode_message(data: bytes) -> List[NodeDescriptor]:
    """Decode a v2 message (validating shape); return the view only."""
    return decode_frame(data)[1]


# -- control plane: versioned request/response frames --------------------------
#
# The gossip frames above are the *data plane*.  The control plane
# (:mod:`repro.control` -- seed-node bootstrap, liveness heartbeats,
# stats aggregation) speaks its own small request/response format so the
# two can never be confused: a distinct magic byte, an explicit protocol
# version, a message *kind* (assigned by :mod:`repro.control.messages`),
# a request id for correlating replies, and a JSON object body.  Bodies
# stay JSON deliberately -- control traffic is a few messages per node
# per second, so debuggability beats compactness here.

CONTROL_MAGIC = 0x9C
"""First byte of every control frame.

Like :data:`V2_MAGIC` it is outside printable ASCII, and it differs
from :data:`V2_MAGIC` and :data:`SIGNED_MAGIC`, so control frames and
gossip frames are mutually unmistakable from their first byte.
"""

CONTROL_VERSION = 1
"""Version of the control frame layout (bumped on incompatible change)."""

MAX_CONTROL_BYTES = 1 << 16  # 64 KiB: control bodies are tiny
"""Hard size cap for control frames, enforced on encode and decode."""

_CONTROL_HEADER = struct.Struct("!BBBI")  # magic, version, kind, request id
_MAX_REQUEST_ID = (1 << 32) - 1


class ControlFrame(NamedTuple):
    """One decoded control-plane message."""

    version: int
    kind: int
    request_id: int
    body: dict


def is_control_frame(data: bytes) -> bool:
    """Whether ``data`` starts like a control frame (cheap demux check)."""
    return len(data) > 0 and data[0] == CONTROL_MAGIC


def encode_control(kind: int, body: dict, request_id: int = 0) -> bytes:
    """Encode one control frame (kind + correlation id + JSON body).

    Raises :class:`CodecError` for out-of-range kinds/ids, bodies that are
    not JSON objects, and frames exceeding :data:`MAX_CONTROL_BYTES` --
    enforced on encode so an oversized frame never reaches a socket.
    """
    if not isinstance(kind, int) or isinstance(kind, bool) or not 0 <= kind <= 255:
        raise CodecError(f"control kind must be an int in [0, 255], got {kind!r}")
    if (
        not isinstance(request_id, int)
        or isinstance(request_id, bool)
        or not 0 <= request_id <= _MAX_REQUEST_ID
    ):
        raise CodecError(
            f"control request id must be an int in [0, 2^32), got {request_id!r}"
        )
    if not isinstance(body, dict):
        raise CodecError(f"control body must be a dict, got {type(body).__name__}")
    try:
        payload = json.dumps(body, separators=(",", ":"), sort_keys=True).encode(
            "utf-8"
        )
    except (TypeError, ValueError) as exc:
        raise CodecError(f"control body is not JSON-serializable: {exc}") from exc
    frame = _CONTROL_HEADER.pack(CONTROL_MAGIC, CONTROL_VERSION, kind, request_id)
    frame += payload
    if len(frame) > MAX_CONTROL_BYTES:
        raise CodecError(
            f"control frame of {len(frame)} bytes exceeds the "
            f"{MAX_CONTROL_BYTES}-byte limit"
        )
    return frame


def decode_control(data: bytes) -> ControlFrame:
    """Decode one control frame; raises :class:`CodecError` on any defect."""
    if len(data) > MAX_CONTROL_BYTES:
        raise CodecError(
            f"control frame of {len(data)} bytes exceeds the limit"
        )
    if len(data) < _CONTROL_HEADER.size:
        raise CodecError(f"truncated control header ({len(data)} bytes)")
    magic, version, kind, request_id = _CONTROL_HEADER.unpack_from(data, 0)
    if magic != CONTROL_MAGIC:
        raise CodecError(f"bad control magic byte: {magic:#x}")
    if version != CONTROL_VERSION:
        raise CodecError(f"unsupported control frame version: {version}")
    try:
        body = json.loads(data[_CONTROL_HEADER.size :].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise CodecError(f"undecodable control body: {exc}") from exc
    if not isinstance(body, dict):
        raise CodecError("control body must be a JSON object")
    return ControlFrame(version, kind, request_id, body)
