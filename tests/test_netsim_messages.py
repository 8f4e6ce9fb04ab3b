"""Unit tests for envelopes and the size model."""

from __future__ import annotations

import pytest

from repro.netsim.messages import (
    DEFAULT_ENVELOPE_OVERHEAD,
    Envelope,
    SizeModel,
    estimate_payload_size,
)


class _Sized:
    def size_bytes(self) -> int:
        return 1234


def test_none_payload_is_zero():
    assert estimate_payload_size(None) == 0


def test_size_bytes_method_is_authoritative():
    assert estimate_payload_size(_Sized()) == 1234


def test_string_size_scales_with_length():
    short = estimate_payload_size("ab")
    long = estimate_payload_size("ab" * 100)
    assert long > short


def test_only_records_and_text_have_a_wire_size():
    """Containers, bytes, numbers and plain objects are no payload: a
    protocol payload is a declared record, and netsim's raw ones are text."""
    for payload in (b"12345", ["abc", "def"], {"k": "v"}, 7, object()):
        with pytest.raises(AttributeError):
            estimate_payload_size(payload)


def test_message_size_adds_envelope_overhead():
    model = SizeModel()
    assert model.message_size(None) == DEFAULT_ENVELOPE_OVERHEAD
    assert model.message_size("hello") > DEFAULT_ENVELOPE_OVERHEAD


def test_compression_reduces_payload_only():
    plain = SizeModel()
    zipped = SizeModel(compression_ratio=0.25)
    payload = "x" * 4000
    assert zipped.message_size(payload) < plain.message_size(payload)
    # The envelope itself is not compressed.
    assert zipped.message_size(None) == plain.message_size(None)


def test_forwarded_envelope_increments_hops():
    env = Envelope(msg_type="query", src="a", dst="b", payload="p", headers={"ttl": 3})
    fwd = env.forwarded("b", "c")
    assert fwd.hops == env.hops + 1
    assert fwd.src == "b"
    assert fwd.dst == "c"
    assert fwd.msg_type == env.msg_type


def test_forwarded_headers_are_independent():
    env = Envelope(msg_type="query", src="a", dst="b", headers={"ttl": 3})
    fwd = env.forwarded("b", "c")
    fwd.headers["ttl"] = 2
    assert env.headers["ttl"] == 3


def test_envelope_ids_are_unique():
    a = Envelope(msg_type="x", src="a", dst="b")
    b = Envelope(msg_type="x", src="a", dst="b")
    assert a.envelope_id != b.envelope_id


def test_header_accessor_default():
    env = Envelope(msg_type="x", src="a", dst="b", headers={"k": 1})
    assert env.header("k") == 1
    assert env.header("missing", "d") == "d"
