"""Tests for the read cursor the XDR and CDR decoders share.

Every decoder read is bounds-checked once against the message and
returns views of it: underflow raises without moving the cursor, and
opaque bodies alias the input instead of copying it.
"""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import BufferUnderflowError, MarshalError
from repro.serialization.cdr import CdrDecoder, CdrEncoder
from repro.serialization.xdr import XdrDecoder, XdrEncoder

CODECS = pytest.mark.parametrize("enc_cls,dec_cls", [
    (XdrEncoder, XdrDecoder), (CdrEncoder, CdrDecoder)], ids=["xdr", "cdr"])


@CODECS
class TestCursor:
    def test_sequential_reads(self, enc_cls, dec_cls):
        dec = dec_cls(b"abcdefghijkl")
        assert bytes(dec.unpack_fixed_opaque(4)) == b"abcd"
        assert bytes(dec.unpack_fixed_opaque(4)) == b"efgh"
        assert not dec.done()
        assert bytes(dec.rest()) == b"ijkl"
        assert dec.done()

    def test_read_returns_memoryview(self, enc_cls, dec_cls):
        view = dec_cls(b"abcdefgh").unpack_fixed_opaque(4)
        assert isinstance(view, memoryview)
        assert bytes(view) == b"abcd"

    def test_read_is_zero_copy(self, enc_cls, dec_cls):
        data = bytearray(enc_cls().pack_opaque(b"abcdef").getvalue())
        dec = dec_cls(data)
        view = dec.unpack_opaque()
        data[4] = ord(b"z")
        assert bytes(view) == b"zbcdef"  # aliases the source

    def test_underflow_raises(self, enc_cls, dec_cls):
        with pytest.raises(BufferUnderflowError):
            dec_cls(b"ab").unpack_uint()
        with pytest.raises(BufferUnderflowError):
            dec_cls(b"ab").unpack_fixed_opaque(3)

    def test_underflow_does_not_advance(self, enc_cls, dec_cls):
        # CDR: the bool leaves the cursor at 1, so the failed hyper read
        # would first align to 8 and the uint read then to 4.
        dec = dec_cls(enc_cls().pack_bool(True).pack_uint(5).getvalue())
        assert dec.unpack_bool() is True
        with pytest.raises(BufferUnderflowError):
            dec.unpack_hyper()
        with pytest.raises(BufferUnderflowError):
            dec.unpack_fixed_opaque(9)
        assert dec.unpack_uint() == 5
        assert dec.done()

    def test_negative_length_rejected(self, enc_cls, dec_cls):
        dec = dec_cls(b"abcd")
        with pytest.raises(MarshalError):
            dec.unpack_fixed_opaque(-1)
        assert bytes(dec.rest()) == b"abcd"

    def test_invalid_utf8_is_a_marshal_error(self, enc_cls, dec_cls):
        dec = dec_cls(enc_cls().pack_opaque(b"\xff\xfe").getvalue())
        with pytest.raises(MarshalError):
            dec.unpack_string()

    @given(st.binary(max_size=500), st.integers(0, 125))
    def test_read_then_rest_partition(self, enc_cls, dec_cls, data, k):
        n = 4 * k  # a multiple of 4, so XDR reads no pad
        dec = dec_cls(data)
        if n > len(data):
            with pytest.raises(BufferUnderflowError):
                dec.unpack_fixed_opaque(n)
            assert bytes(dec.rest()) == data
        else:
            head = bytes(dec.unpack_fixed_opaque(n))
            assert head + bytes(dec.rest()) == data
