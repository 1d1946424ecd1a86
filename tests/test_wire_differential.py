"""Differential tests: the struct-based decoder against the cursor decoder it replaced.

oracle_decode below is the earlier field-by-field decoder, kept verbatim
apart from its name. For every input the decoder under test must return a
packet equal to the oracle's, field types included, or raise DecodeError
with the same reason. That pins the decode order documented in
docs/wire.md: when an input breaks several rules, the first rule the
cursor reaches decides the reason.
"""

import random
import struct
from dataclasses import fields

from hypothesis import given, settings, strategies as st

from blockfer.wire import (
    ACK_MAX_UNRECEIVED,
    INFO_MAX,
    MAGIC,
    MESSAGE_MAX,
    METADATA_MAX,
    PAYLOAD_MAX,
    TYPE_ACKNOWLEDGEMENT,
    TYPE_DATA,
    TYPE_ERROR,
    TYPE_WRITE_REQUEST,
    VERSION,
    Acknowledgement,
    Data,
    DecodeError,
    ErrorCode,
    ErrorPacket,
    WriteRequest,
    block_count_for,
    decode_packet,
    encode_packet,
)
from test_wire import random_packet, valid_samples

_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")


# --- the oracle: the cursor decoder, unchanged ---------------------------------

class _Reader:
    """Cursor over the input buffer; running out of bytes is a truncation."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        end = self.pos + n
        if end > len(self.buf):
            raise DecodeError("truncation", f"input ends inside {what}")
        chunk = self.buf[self.pos:end]
        self.pos = end
        return chunk

    def u16(self, what: str) -> int:
        return _U16.unpack(self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return _U32.unpack(self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return _U64.unpack(self.take(8, what))[0]

    def utf8(self, cap: int, what: str) -> str:
        length = self.u16(what)
        if length > cap:
            raise DecodeError("invariant", f"{what} exceeds {cap} bytes")
        raw = self.take(length, what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise DecodeError("invariant", f"{what} is not valid UTF-8") from None

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise DecodeError("invariant", "trailing bytes after packet")


def oracle_decode(raw: bytes):
    """Parse one datagram; raises DecodeError on any invalid input."""
    r = _Reader(raw)
    magic = r.take(2, "magic")
    if magic != MAGIC:
        raise DecodeError("magic", f"bad magic {magic.hex()}")
    version = r.take(1, "version")[0]
    if version != VERSION:
        raise DecodeError("magic", f"unsupported version {version}")
    ptype = r.take(1, "type")[0]

    if ptype == TYPE_WRITE_REQUEST:
        pid = r.u64("id")
        info = r.utf8(INFO_MAX, "info")
        data_size = r.u64("data_size")
        block_size = r.u32("block_size")
        window_size = r.u32("window_size")
        block_count = r.u32("block_count")
        nonce = r.u64("nonce")
        metadata_len = r.u16("metadata")
        if metadata_len > METADATA_MAX:
            raise DecodeError("invariant", f"metadata exceeds {METADATA_MAX} bytes")
        metadata = r.take(metadata_len, "metadata")
        r.done()
        if block_size < 1:
            raise DecodeError("invariant", "block_size is zero")
        if block_count != block_count_for(data_size, block_size):
            raise DecodeError("invariant", "block_count inconsistent with data_size/block_size")
        return WriteRequest(pid, info, data_size, block_size, window_size,
                            block_count, nonce, metadata)

    if ptype == TYPE_ACKNOWLEDGEMENT:
        pid = r.u64("id")
        window_index = r.u32("window_index")
        count = r.u16("unreceived count")
        if count > ACK_MAX_UNRECEIVED:
            raise DecodeError("invariant", "unreceived list too long for one datagram")
        entries = struct.unpack(f"!{count}I", r.take(4 * count, "unreceived list"))
        r.done()
        if any(entries[i] >= entries[i + 1] for i in range(count - 1)):
            raise DecodeError("invariant", "unreceived list is not strictly increasing")
        return Acknowledgement(pid, window_index, entries)

    if ptype == TYPE_DATA:
        pid = r.u64("id")
        block_number = r.u32("block_number")
        length = r.u16("payload")
        if length > PAYLOAD_MAX:
            raise DecodeError("invariant", f"payload exceeds {PAYLOAD_MAX} bytes")
        payload = r.take(length, "payload")
        r.done()
        return Data(pid, block_number, payload)

    if ptype == TYPE_ERROR:
        pid = r.u64("id")
        code = r.take(1, "code")[0]
        if code > 5:
            raise DecodeError("invariant", f"unknown error code {code}")
        message = r.utf8(MESSAGE_MAX, "message")
        r.done()
        return ErrorPacket(pid, ErrorCode(code), message)

    raise DecodeError("invariant", f"unknown packet type {ptype}")


# --- comparison ---------------------------------------------------------------

def outcome(decode, raw):
    """What a decoder makes of raw: its reason, or the packet field by field."""
    try:
        packet = decode(raw)
    except DecodeError as err:
        return ("error", err.reason)
    values = [getattr(packet, f.name) for f in fields(packet)]
    return ("packet", type(packet), [(type(v), v) for v in values])


def mismatches(corpus):
    return [raw for raw in corpus if outcome(decode_packet, raw) != outcome(oracle_decode, raw)]


def assert_agrees(raw):
    assert outcome(decode_packet, raw) == outcome(oracle_decode, raw), raw.hex()


# --- fixed corpora ---------------------------------------------------------------

def test_every_prefix_of_the_valid_samples():
    corpus = [raw[:cut] for raw in valid_samples() for cut in range(len(raw) + 1)]
    assert mismatches(corpus) == []


def test_random_byte_corpus():
    rng = random.Random(0xF022)
    corpus = [rng.randbytes(rng.randrange(0, 1400)) for _ in range(10_000)]
    assert mismatches(corpus) == []


def test_mutated_packet_corpus():
    rng = random.Random(0xF023)
    corpus = []
    for _ in range(4000):
        raw = bytearray(encode_packet(random_packet(rng)))
        for _ in range(rng.randrange(1, 4)):
            raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
        corpus.append(bytes(raw))
    assert mismatches(corpus) == []
    reasons = {outcome(oracle_decode, raw)[-1] for raw in corpus
               if outcome(oracle_decode, raw)[0] == "error"}
    assert reasons == {"truncation", "magic", "invariant"}


# --- generated inputs behind a valid header ------------------------------------------

HEADERS = [MAGIC + bytes([VERSION, ptype]) for ptype in (1, 2, 3, 4)]

# The fields after the header, per type: a fixed width in bytes, a
# (cap, text) u16-prefixed field, or "entries" for the ack's block list.
LAYOUTS = {
    TYPE_WRITE_REQUEST: [8, (INFO_MAX, True), 8, 4, 4, 4, 8, (METADATA_MAX, False)],
    TYPE_ACKNOWLEDGEMENT: [8, 4, "entries"],
    TYPE_DATA: [8, 4, (PAYLOAD_MAX, False)],
    TYPE_ERROR: [8, 1, (MESSAGE_MAX, True)],
}

SETTINGS = settings(max_examples=1500, deadline=None, derandomize=True, database=None)


@st.composite
def shaped_packets(draw):
    """Packets built field by field with values at and past every cap, then cut or padded."""
    ptype = draw(st.sampled_from(sorted(LAYOUTS)))
    out = bytearray(HEADERS[ptype - 1])
    for item in LAYOUTS[ptype]:
        if isinstance(item, int):
            small = st.integers(0, 8).map(lambda n, width=item: n.to_bytes(width, "big"))
            out += draw(small | st.binary(min_size=item, max_size=item))
        elif item == "entries":
            count = draw(st.sampled_from([0, 1, 2, 3, ACK_MAX_UNRECEIVED, ACK_MAX_UNRECEIVED + 1])
                         | st.integers(0, ACK_MAX_UNRECEIVED + 2))
            entries = list(range(count))
            if count >= 2 and draw(st.booleans()):
                at = draw(st.integers(1, count - 1))
                entries[at] = entries[at - 1] - draw(st.integers(0, 1))  # duplicate or step down
            out += count.to_bytes(2, "big")
            out += b"".join(max(e, 0).to_bytes(4, "big") for e in entries)
        else:
            cap, text = item
            length = draw(st.sampled_from([0, 1, cap - 1, cap, cap + 1]) | st.integers(0, cap + 2))
            fill = draw(st.sampled_from(["text", "random", "bad_utf8"] if text else ["random"]))
            if fill == "text":
                body = b"a" * length
            elif fill == "bad_utf8":
                body = b"\xc3a" + b"a" * length  # a lead byte followed by a non-continuation
            else:
                body = draw(st.binary(min_size=length, max_size=length))
            out += length.to_bytes(2, "big") + body[:length]
    end = draw(st.sampled_from(["whole", "cut", "extra"]))
    if end == "cut":
        out = out[:draw(st.integers(0, len(out)))]
    elif end == "extra":
        out += draw(st.binary(min_size=1, max_size=4))
    return bytes(out)


@SETTINGS
@given(head=st.sampled_from(HEADERS), tail=st.binary(max_size=64))
def test_valid_header_random_tail(head, tail):
    assert_agrees(head + tail)


@SETTINGS
@given(raw=shaped_packets())
def test_valid_header_shaped_tail(raw):
    assert_agrees(raw)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), cut=st.integers(0, 1300), extra=st.binary(max_size=3))
def test_valid_packet_cut_or_extended(seed, cut, extra):
    raw = encode_packet(random_packet(random.Random(seed)))
    assert_agrees(raw[:cut] + extra)


# --- Data inputs the decoder's head check must hand to the ordered checks --------

def _data_head(length, magic=MAGIC, version=VERSION):
    return magic + bytes([version, TYPE_DATA]) + (7).to_bytes(8, "big") + (3).to_bytes(4, "big") \
        + length.to_bytes(2, "big")


MALFORMED_DATA = {
    "wrong magic": (_data_head(10, magic=b"\xeb\x02") + bytes(10), "magic"),
    "wrong version": (_data_head(10, version=VERSION + 1) + bytes(10), "magic"),
    "length above PAYLOAD_MAX": (_data_head(PAYLOAD_MAX + 1) + bytes(PAYLOAD_MAX + 1),
                                 "invariant"),
    "one trailing byte": (_data_head(10) + bytes(11), "invariant"),
    "one byte short": (_data_head(10) + bytes(9), "truncation"),
    "one byte short, head alone": (_data_head(1), "truncation"),
}


def test_malformed_data_falls_through_to_the_ordered_checks():
    """Type-3 inputs of 18 bytes or more that fail the well-formed Data check
    get the reason the field-by-field decoder gives."""
    assert decode_packet(_data_head(10) + bytes(10)) == Data(7, 3, bytes(10))
    for name, (raw, reason) in MALFORMED_DATA.items():
        assert len(raw) >= 18, name
        assert outcome(decode_packet, raw) == outcome(oracle_decode, raw) == ("error", reason), name
