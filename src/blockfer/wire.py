"""Wire codec for the block transfer protocol.

Every packet travels as exactly one datagram. Common header:

    offset  size  field
    0       2     magic, 0xEB 0x01
    2       1     version, 0x01
    3       1     packet type

Type-specific fields follow in order, big endian, fixed width. Variable
fields carry a u16 prefix (byte length, or entry count for block lists).

    type 1  WriteRequest     id:u64  info:u16+utf8  data_size:u64
                             block_size:u32  window_size:u32  block_count:u32
                             nonce:u64  metadata:u16+bytes
    type 2  Acknowledgement  id:u64  window_index:u32  unreceived:u16 + n*u32
    type 3  Data             id:u64  block_number:u32  payload:u16+bytes
    type 4  Error            id:u64  code:u8  message:u16+utf8

The full layout with worked hex examples lives in docs/wire.md. Decoding is
total: any input either yields a packet or raises DecodeError; whatever is
accepted re-encodes to the identical bytes.

Data is nearly every datagram of a transfer, so each direction of the codec
takes it first on a path of its own. encode_packet packs a Data with one
struct call before it looks at any other type. decode_packet unpacks the
18-byte head once and returns a well-formed Data at once; any other input,
a malformed Data included, goes through the ordered checks, so the reason a
DecodeError gives does not depend on that shortcut.

Packets are slotted value records: they compare by value and list their
fields through dataclasses.fields(), but are neither frozen nor hashable,
and nothing keys a set or dict on one. Data.payload is any bytes-like
object: the sender hands out views of its buffer, which encoding copies
once into the datagram; decoding yields bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from operator import lt
from typing import Union

MAGIC = b"\xeb\x01"
VERSION = 0x01

TYPE_WRITE_REQUEST = 1
TYPE_ACKNOWLEDGEMENT = 2
TYPE_DATA = 3
TYPE_ERROR = 4

# Field caps. A Data packet with the largest payload encodes to
# 18 + 1200 = 1218 bytes; no valid packet exceeds DATAGRAM_BUDGET.
INFO_MAX = 64
METADATA_MAX = 512
MESSAGE_MAX = 128
PAYLOAD_MAX = 1200
DATAGRAM_BUDGET = 1241
DATA_WIRE_OVERHEAD = 18  # header 4 + id 8 + block_number 4 + length 2
ACK_MAX_UNRECEIVED = (DATAGRAM_BUDGET - DATA_WIRE_OVERHEAD) // 4  # 305
MTU = 1500


class MtuError(ValueError):
    """Datagram exceeds the 1500-byte MTU; both transports refuse to send it."""


# One precompiled layout per fixed section. Data and Acknowledgement share
# an 18-byte head: the 4-byte header as one field, id, block_number or
# window_index, and the payload length or entry count. WriteRequest and
# Error carry their u16 string prefixes at the end of a fixed section.
_HEAD = struct.Struct("!4sQIH")
_WR_HEAD = struct.Struct("!2sBBQH")      # header, id, info length
_WR_BODY = struct.Struct("!QIIIQH")      # data_size .. nonce, metadata length
_ERROR_HEAD = struct.Struct("!2sBBQBH")  # header, id, code, message length
_ENTRIES = [struct.Struct(f"!{n}I") for n in range(ACK_MAX_UNRECEIVED + 1)]  # by entry count
_PREFIX = MAGIC + bytes([VERSION])
_DATA_PREFIX = _PREFIX + bytes([TYPE_DATA])
_ACK_PREFIX = _PREFIX + bytes([TYPE_ACKNOWLEDGEMENT])


class ErrorCode(IntEnum):
    """Protocol error causes; values are fixed on the wire."""

    SIZE_EXCEEDED = 0
    BUSY = 1
    COLLISION = 2
    TIMEOUT = 3
    DECODE_FAILURE = 4
    UNKNOWN_TRANSFER = 5


_ERROR_CODE_MAX = max(ErrorCode)  # decode refuses any larger code


class DecodeError(ValueError):
    """Raised for any undecodable input.

    reason is one of "truncation" (input ends early), "magic" (bad magic or
    version), "invariant" (structurally complete but violates a field rule).
    """

    def __init__(self, reason: str, detail: str):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason


def block_count_for(data_size: int, block_size: int) -> int:
    """Number of blocks a transfer of data_size bytes splits into."""
    if block_size < 1:
        raise ValueError("block_size must be positive")
    return (data_size + block_size - 1) // block_size


@dataclass(slots=True)
class WriteRequest:
    id: int
    info: str
    data_size: int
    block_size: int
    window_size: int
    block_count: int
    nonce: int
    metadata: bytes = b""


@dataclass(slots=True)
class Acknowledgement:
    id: int
    window_index: int
    unreceived: tuple[int, ...] = ()


@dataclass(slots=True)
class Data:
    id: int
    block_number: int
    payload: bytes = field(repr=False, default=b"")


@dataclass(slots=True)
class ErrorPacket:
    id: int
    code: ErrorCode
    message: str = ""


Packet = Union[WriteRequest, Acknowledgement, Data, ErrorPacket]


def _check(condition: bool, what: str) -> None:
    if not condition:
        raise ValueError(what)


def encode_packet(packet: Packet) -> bytes:
    """Serialize a packet; raises ValueError if a field violates its cap."""
    try:
        if isinstance(packet, Data):  # the common case, first
            payload = packet.payload
            if len(payload) > PAYLOAD_MAX:
                raise ValueError("payload exceeds 1200 bytes")
            return _HEAD.pack(_DATA_PREFIX, packet.id, packet.block_number,
                              len(payload)) + payload
        return _encode(packet)
    except struct.error as exc:
        raise ValueError(f"field out of range: {exc}") from None


def _encode(packet: Packet) -> bytes:
    if isinstance(packet, Acknowledgement):
        entries = packet.unreceived
        _check(len(entries) <= ACK_MAX_UNRECEIVED, "unreceived list too long for one datagram")
        _check(all(map(lt, entries, entries[1:])), "unreceived list must be strictly increasing")
        return (_HEAD.pack(_ACK_PREFIX, packet.id, packet.window_index, len(entries))
                + _ENTRIES[len(entries)].pack(*entries))

    if isinstance(packet, WriteRequest):
        info = packet.info.encode("utf-8")
        metadata = packet.metadata
        _check(len(info) <= INFO_MAX, "info exceeds 64 bytes")
        _check(len(metadata) <= METADATA_MAX, "metadata exceeds 512 bytes")
        _check(packet.block_size >= 1, "block_size must be positive")
        _check(packet.block_count == block_count_for(packet.data_size, packet.block_size),
               "block_count inconsistent with data_size/block_size")
        return (_WR_HEAD.pack(MAGIC, VERSION, TYPE_WRITE_REQUEST, packet.id, len(info)) + info
                + _WR_BODY.pack(packet.data_size, packet.block_size, packet.window_size,
                                packet.block_count, packet.nonce, len(metadata))
                + metadata)

    if isinstance(packet, ErrorPacket):
        message = packet.message.encode("utf-8")
        _check(len(message) <= MESSAGE_MAX, "message exceeds 128 bytes")
        return _ERROR_HEAD.pack(MAGIC, VERSION, TYPE_ERROR, packet.id,
                                ErrorCode(packet.code).value, len(message)) + message

    raise ValueError(f"not a packet: {packet!r}")


def _truncated(what: str) -> DecodeError:
    return DecodeError("truncation", f"input ends inside {what}")


def _section(layout: struct.Struct, raw: bytes, offset: int, what: str) -> tuple:
    """The fields of the fixed section at offset; a truncation if the input ends inside it."""
    if len(raw) < offset + layout.size:
        raise _truncated(what)
    return layout.unpack_from(raw, offset)


def _field(raw: bytes, start: int, length: int, cap: int, what: str) -> bytes:
    """The variable field at start: its cap is checked before its length."""
    if length > cap:
        raise DecodeError("invariant", f"{what} exceeds {cap} bytes")
    if len(raw) < start + length:
        raise _truncated(what)
    return raw[start:start + length]


def _text(raw: bytes, start: int, length: int, cap: int, what: str) -> str:
    try:
        return _field(raw, start, length, cap, what).decode("utf-8")
    except UnicodeDecodeError:
        raise DecodeError("invariant", f"{what} is not valid UTF-8") from None


def _length_error(raw: bytes, end: int, what: str) -> DecodeError:
    """Why a packet that should end at end does not: a truncation, or trailing bytes."""
    if len(raw) < end:
        return _truncated(what)
    return DecodeError("invariant", "trailing bytes after packet")


def _header_error(raw: bytes) -> DecodeError:
    """Why raw does not start with a complete header of the supported version."""
    if len(raw) < 2:
        return _truncated("magic")
    if raw[:2] != MAGIC:
        return DecodeError("magic", f"bad magic {raw[:2].hex()}")
    if len(raw) < 3:
        return _truncated("version")
    if raw[2] != VERSION:
        return DecodeError("magic", f"unsupported version {raw[2]}")
    return _truncated("type")


def decode_packet(raw: bytes) -> Packet:
    """Parse one datagram; raises DecodeError on any invalid input.

    When an input breaks several rules, the first one met reading front to
    back decides the reason (docs/wire.md, "Decode order"). A well-formed
    Data returns from its head check; every other input meets those rules.
    """
    if len(raw) >= DATA_WIRE_OVERHEAD:
        head, pid, block_number, length = _HEAD.unpack_from(raw)
        if head == _DATA_PREFIX and len(raw) - DATA_WIRE_OVERHEAD == length <= PAYLOAD_MAX:
            return Data(pid, block_number, raw[DATA_WIRE_OVERHEAD:])
    if raw[:3] != _PREFIX or len(raw) < 4:
        raise _header_error(raw)
    ptype = raw[3]

    if ptype == TYPE_DATA:  # not well formed, or it would have returned above
        if len(raw) < DATA_WIRE_OVERHEAD:
            raise _truncated("Data head")
        length = _HEAD.unpack_from(raw)[3]
        if length > PAYLOAD_MAX:
            raise DecodeError("invariant", f"payload exceeds {PAYLOAD_MAX} bytes")
        raise _length_error(raw, DATA_WIRE_OVERHEAD + length, "payload")

    if ptype == TYPE_ACKNOWLEDGEMENT:
        if len(raw) < DATA_WIRE_OVERHEAD:
            raise _truncated("Acknowledgement head")
        _, pid, window_index, count = _HEAD.unpack_from(raw)
        if count > ACK_MAX_UNRECEIVED:
            raise DecodeError("invariant", "unreceived list too long for one datagram")
        if len(raw) != DATA_WIRE_OVERHEAD + 4 * count:
            raise _length_error(raw, DATA_WIRE_OVERHEAD + 4 * count, "unreceived list")
        entries = _ENTRIES[count].unpack_from(raw, DATA_WIRE_OVERHEAD)
        if not all(map(lt, entries, entries[1:])):
            raise DecodeError("invariant", "unreceived list is not strictly increasing")
        return Acknowledgement(pid, window_index, entries)

    if ptype == TYPE_WRITE_REQUEST:
        _, _, _, pid, info_len = _section(_WR_HEAD, raw, 0, "WriteRequest head")
        pos = _WR_HEAD.size
        info = _text(raw, pos, info_len, INFO_MAX, "info")
        pos += info_len
        data_size, block_size, window_size, block_count, nonce, metadata_len = _section(
            _WR_BODY, raw, pos, "WriteRequest fields after info")
        pos += _WR_BODY.size
        metadata = _field(raw, pos, metadata_len, METADATA_MAX, "metadata")
        if len(raw) != pos + metadata_len:
            raise _length_error(raw, pos + metadata_len, "metadata")
        if block_size < 1:
            raise DecodeError("invariant", "block_size is zero")
        if block_count != block_count_for(data_size, block_size):
            raise DecodeError("invariant", "block_count inconsistent with data_size/block_size")
        return WriteRequest(pid, info, data_size, block_size, window_size,
                            block_count, nonce, metadata)

    if ptype == TYPE_ERROR:
        if len(raw) > 12 and raw[12] > _ERROR_CODE_MAX:  # checked before the message length
            raise DecodeError("invariant", f"unknown error code {raw[12]}")
        _, _, _, pid, code, length = _section(_ERROR_HEAD, raw, 0, "Error head")
        message = _text(raw, _ERROR_HEAD.size, length, MESSAGE_MAX, "message")
        if len(raw) != _ERROR_HEAD.size + length:
            raise _length_error(raw, _ERROR_HEAD.size + length, "message")
        return ErrorPacket(pid, ErrorCode(code), message)

    raise DecodeError("invariant", f"unknown packet type {ptype}")
