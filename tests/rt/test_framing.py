"""Wire-format tests: value round-trips, frame reassembly, ceilings.

Every round trip runs through both spellings of a protocol value: the
tagged-JSON event-log vocabulary (``encode_value`` -> JSON text ->
``decode_value``) and the binary codec (``BinaryWire``).
"""

from __future__ import annotations

import json
import struct

import pytest

from repro.core.types import BOTTOM, Label, View
from repro.core.vstoto.summary import Summary
from repro.membership.messages import Accept, Join, NewGroup, Probe, Sequenced, Token
from repro.rt.framing import (
    MAX_FRAME,
    FrameError,
    decode_value,
    encode_value,
)
from repro.rt.transport import Ctl, Hello
from repro.rt.wire import (
    FLAG_BATCH,
    BinaryWire,
    WireDecoder,
    encode_wire_frame,
    pack_batch,
)


def json_roundtrip(value):
    text = json.dumps(encode_value(value), separators=(",", ":"))
    return decode_value(json.loads(text))


def binary_roundtrip(value):
    return BinaryWire().decode(BinaryWire().encode(value))


def roundtrip(value):
    """Both spellings of ``value`` decode to the same value; return it."""
    via_json = json_roundtrip(value)
    via_binary = binary_roundtrip(value)
    assert via_json == via_binary
    assert type(via_json) is type(via_binary)
    return via_binary


class TestCodecRoundtrip:
    def test_scalars(self):
        for value in (None, True, False, 0, -7, 3.5, "p1", ""):
            assert roundtrip(value) == value
            assert type(roundtrip(value)) is type(value)

    def test_tuple_vs_list_distinction_survives(self):
        assert roundtrip((1, 2)) == (1, 2)
        assert roundtrip([1, 2]) == [1, 2]
        assert isinstance(roundtrip((1, 2)), tuple)
        assert isinstance(roundtrip([1, 2]), list)

    def test_nested_composites(self):
        value = {"k": [(1, ("a", None)), frozenset({"x", "y"})]}
        back = roundtrip(value)
        assert back == value
        assert isinstance(back["k"][0], tuple)
        assert isinstance(back["k"][1], frozenset)

    def test_view_and_bottom(self):
        view = View((3, "p2"), frozenset({"p1", "p2", "p3"}))
        assert roundtrip(view) == view
        assert json_roundtrip(BOTTOM) is BOTTOM
        assert binary_roundtrip(BOTTOM) is BOTTOM
        assert roundtrip({"high": BOTTOM}) == {"high": BOTTOM}

    def test_label_and_summary(self):
        label = Label(id=(2, "p1"), seqno=4, origin="p3")
        assert roundtrip(label) == label
        summary = Summary(
            con=frozenset({(label, "hello")}),
            ord=(label,),
            next=2,
            high=(2, "p1"),
        )
        back = roundtrip(summary)
        assert back == summary
        assert back.confirm == summary.confirm

    def test_membership_messages(self):
        join = Join((2, "p1"), ("p1", "p2", "p3"))
        for message in (
            NewGroup((2, "p1"), "p1"),
            Accept((2, "p1"), "p2"),
            join,
            Probe("p1", (1, "p1")),
            Sequenced(5, join),
        ):
            assert roundtrip(message) == message

    def test_token_roundtrip(self):
        token = Token(
            viewid=(3, "p1"),
            members=("p1", "p2", "p3"),
            base=2,
            order=[("m4", "p2"), ("m5", "p1")],
            delivered={"p1": 4, "p2": 3, "p3": 2},
            safed={"p1": 2},
            seen={"p1": 4, "p2": 4, "p3": 4},
            trail=["p1", "p2"],
            hop=5,
        )
        back = roundtrip(Sequenced(9, token)).body
        assert back == token
        assert isinstance(back.members, tuple)
        assert isinstance(back.order, list)
        assert all(isinstance(entry, tuple) for entry in back.order)
        assert back.total == token.total

    def test_control_records(self):
        assert roundtrip(Hello(src="driver")) == Hello(src="driver")
        ctl = Ctl("block", ["p2", "p3"])
        assert roundtrip(ctl) == ctl

    def test_gpsnd_payload_shape(self):
        # The exact shape VStoTO puts through gpsnd: (Label, value).
        label = Label(id=(0, "p1"), seqno=1, origin="p1")
        back = roundtrip((label, "m0"))
        assert back == (label, "m0")
        assert isinstance(back, tuple) and isinstance(back[0], Label)

    def test_unencodable_value_raises(self):
        with pytest.raises(FrameError, match="cannot encode"):
            encode_value(object())
        with pytest.raises(FrameError, match="cannot encode"):
            BinaryWire().encode(object())

    def test_undecodable_payload_raises(self):
        with pytest.raises(FrameError, match="undecodable"):
            BinaryWire().decode(b"\x06\x02\xff\xfe")  # 2-byte str, bad UTF-8
        with pytest.raises(FrameError, match="unknown binary tag"):
            BinaryWire().decode(b"\xee")
        with pytest.raises(FrameError, match="unknown wire type"):
            decode_value({"!": "m", "m": "Nope", "f": {}})
        with pytest.raises(FrameError, match="unknown wire type"):
            BinaryWire().decode(b"\x0e\x06\x04Nope\x00")
        with pytest.raises(FrameError, match="unknown codec tag"):
            decode_value({"!": "??"})

    def test_encoding_is_deterministic(self):
        value = frozenset({("b", 2), ("a", 1), ("c", 3)})
        assert BinaryWire().encode(value) == BinaryWire().encode(value)
        assert encode_value(value) == encode_value(value)
        assert decode_value(encode_value(value)) == value


def frame(payload: bytes, max_frame: int = MAX_FRAME) -> bytes:
    return encode_wire_frame(payload, max_frame=max_frame)


class TestFrameDecoder:
    def test_single_frame(self):
        decoder = WireDecoder()
        frames = decoder.feed(frame(b"hello"))
        assert [f.payload for f in frames] == [b"hello"]
        assert decoder.frames_decoded == 1
        assert decoder.pending_bytes == 0

    def test_partial_reads_byte_at_a_time(self):
        payloads = [b"one", b"twotwo", b"", b"x" * 300]
        stream = b"".join(frame(p) for p in payloads)
        decoder = WireDecoder()
        seen: list[bytes] = []
        for i in range(len(stream)):
            seen.extend(f.payload for f in decoder.feed(stream[i : i + 1]))
        assert seen == payloads
        assert decoder.bytes_fed == len(stream)
        assert decoder.pending_bytes == 0

    def test_multiple_frames_in_one_read(self):
        batch = encode_wire_frame(pack_batch([b"d", b"e"]), FLAG_BATCH)
        stream = frame(b"a") + frame(b"bb") + frame(b"ccc") + batch
        frames = WireDecoder().feed(stream)
        assert [f.payload for f in frames[:3]] == [b"a", b"bb", b"ccc"]
        assert [f.flags & FLAG_BATCH for f in frames] == [0, 0, 0, FLAG_BATCH]

    def test_split_across_header_boundary(self):
        whole = frame(b"payload")
        decoder = WireDecoder()
        assert decoder.feed(whole[:3]) == []  # part of a header
        assert decoder.feed(whole[3:9]) == []  # header + 1 byte
        assert [f.payload for f in decoder.feed(whole[9:])] == [b"payload"]

    def test_oversized_outgoing_frame_rejected(self):
        with pytest.raises(FrameError, match="exceeds"):
            encode_wire_frame(b"x" * 101, max_frame=100)
        with pytest.raises(FrameError, match="exceeds"):
            BinaryWire().encode("y" * (MAX_FRAME + 1))

    def test_oversized_incoming_frame_rejected_before_buffering(self):
        decoder = WireDecoder(max_frame=64)
        header = bytearray(frame(b""))
        header[4:8] = struct.pack(">I", 65)
        with pytest.raises(FrameError, match="declares 65 bytes"):
            decoder.feed(bytes(header) + b"x" * 10)
        # The poison payload was never buffered.
        assert decoder.pending_bytes <= len(header) + 10

    def test_frame_at_exact_ceiling_accepted(self):
        decoder = WireDecoder(max_frame=64)
        payload = b"z" * 64
        frames = decoder.feed(frame(payload, max_frame=64))
        assert [f.payload for f in frames] == [payload]


class TestHostileStreams:
    """Streams the one decoder must refuse outright."""

    def test_legacy_json_hello_is_rejected_at_its_first_byte(self):
        # What an old peer opened every connection with: a 4-byte
        # length prefix around a tagged-JSON Hello.
        body = json.dumps(
            {"!": "m", "m": "Hello", "f": {"src": "p9", "wire": "json"}}
        ).encode()
        legacy = struct.pack(">I", len(body)) + body
        decoder = WireDecoder()
        with pytest.raises(FrameError, match="does not open a frame"):
            decoder.feed(legacy[:1])

    def test_unknown_codec_id_rejected(self):
        header = bytearray(frame(b"{}"))
        header[2] = 0  # the codec id the tagged-JSON wire used
        with pytest.raises(FrameError, match="unknown codec id 0"):
            WireDecoder().feed(bytes(header))

    def test_garbage_after_a_good_frame_is_rejected(self):
        decoder = WireDecoder()
        assert [f.payload for f in decoder.feed(frame(b"ok"))] == [b"ok"]
        with pytest.raises(FrameError):
            decoder.feed(b"\x00\x00\x00\x02{}")
