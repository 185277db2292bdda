"""Tests for the RSR wire format."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import MarshalError
from repro.nexus.rsr import RsrFlags, RsrMessage


class TestConstructors:
    def test_request(self):
        m = RsrMessage.request(7, "invoke", b"args")
        assert m.is_request() and not m.is_reply()
        assert not m.is_oneway() and not m.is_error()
        assert m.handler == "invoke"

    def test_oneway_request(self):
        m = RsrMessage.request(7, "notify", b"", oneway=True)
        assert m.is_request() and m.is_oneway()

    def test_reply(self):
        m = RsrMessage.reply(7, b"result")
        assert m.is_reply() and not m.is_request() and not m.is_error()

    def test_error(self):
        m = RsrMessage.error(7, b"boom")
        assert m.is_reply() and m.is_error()


class TestWire:
    def test_roundtrip(self):
        m = RsrMessage.request(123456789, "method.name", b"\x00payload\xff")
        out = RsrMessage.decode(m.encode())
        assert out == m

    def test_reply_roundtrip(self):
        m = RsrMessage.error(2 ** 40, b"exception data")
        assert RsrMessage.decode(m.encode()) == m

    @given(st.integers(0, 2 ** 64 - 1), st.text(max_size=50),
           st.binary(max_size=500), st.booleans())
    def test_roundtrip_property(self, rid, handler, payload, oneway):
        m = RsrMessage.request(rid, handler, payload, oneway=oneway)
        assert RsrMessage.decode(m.encode()) == m

    def test_kindless_message_rejected(self):
        bogus = RsrMessage(flags=RsrFlags(0), request_id=1, handler="h",
                           payload=b"")
        with pytest.raises(MarshalError):
            RsrMessage.decode(bogus.encode())

    def test_payload_preserved_verbatim(self):
        payload = bytes(range(256))
        m = RsrMessage.request(1, "h", payload)
        assert RsrMessage.decode(m.encode()).payload == payload

    @pytest.mark.parametrize("meta", [False, True], ids=["plain", "meta"])
    @given(rid=st.integers(0, 2 ** 64 - 1), handler=st.text(max_size=20),
           payload=st.binary(max_size=64), oneway=st.booleans(),
           priority=st.integers(1, 2 ** 32 - 1),
           deadline=st.one_of(st.none(), st.floats(allow_nan=False)))
    @settings(max_examples=50, derandomize=True)
    def test_every_strict_prefix_rejected(self, meta, rid, handler, payload,
                                          oneway, priority, deadline):
        """Truncation anywhere, the META trailer included, raises
        MarshalError and nothing else."""
        m = RsrMessage.request(rid, handler, payload, oneway=oneway,
                               priority=priority if meta else 0,
                               deadline=deadline if meta else None)
        assert bool(m.flags & RsrFlags.META) is meta
        wire = m.encode()
        assert RsrMessage.decode(wire) == m
        for cut in range(len(wire)):
            with pytest.raises(MarshalError):
                RsrMessage.decode(wire[:cut])
