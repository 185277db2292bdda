"""XDR (External Data Representation) encoder/decoder — RFC 1832 subset.

XDR is the encoding the paper's reference proto-object uses ("a TCP based
proto-object that uses XDR for data encoding", §3.1).  Properties:

* big-endian integers and IEEE-754 floats,
* every item padded to a 4-byte boundary,
* variable-length opaque/string = 4-byte length + bytes + pad.

The encoder appends to a :class:`repro.util.bytesbuf.ByteBuffer`, whose
large chunks are kept by reference; the decoder is a
:class:`~repro.serialization.cursor.Cursor` that reads each field with
``struct.unpack_from`` behind one bounds check and returns opaque bodies
as views of the message.  So a multi-megabyte array argument is never
copied by the codec itself, and malformed or truncated input raises
:class:`~repro.exceptions.MarshalError`.
"""

from __future__ import annotations

import struct

from repro.exceptions import MarshalError
from repro.serialization.cursor import Cursor, field
from repro.util.bytesbuf import ZERO_COPY_THRESHOLD, ByteBuffer

__all__ = ["XdrEncoder", "XdrDecoder"]

_PAD = b"\x00\x00\x00"

_S_INT = struct.Struct(">i")
_S_UINT = struct.Struct(">I")
_S_HYPER = struct.Struct(">q")
_S_UHYPER = struct.Struct(">Q")
_S_FLOAT = struct.Struct(">f")
_S_DOUBLE = struct.Struct(">d")

INT32_MIN = -(2 ** 31)
INT32_MAX = 2 ** 31 - 1
INT64_MIN = -(2 ** 63)
INT64_MAX = 2 ** 63 - 1


class XdrEncoder:
    """Streaming XDR encoder.

    All ``pack_*`` methods return ``self`` so encodings chain fluently::

        enc = XdrEncoder()
        enc.pack_uint(3).pack_string("add").pack_double(2.5)
        wire = enc.getvalue()
    """

    #: Short stable name used in protocol descriptors.
    name = "xdr"
    byteorder = "big"

    def __init__(self, buffer: ByteBuffer | None = None):
        self.buffer = buffer if buffer is not None else ByteBuffer()

    # -- integers ----------------------------------------------------------

    def pack_int(self, value: int) -> "XdrEncoder":
        if not INT32_MIN <= value <= INT32_MAX:
            raise MarshalError(f"int32 out of range: {value}")
        self.buffer.write(_S_INT.pack(value))
        return self

    def pack_uint(self, value: int) -> "XdrEncoder":
        if not 0 <= value <= 0xFFFFFFFF:
            raise MarshalError(f"uint32 out of range: {value}")
        self.buffer.write(_S_UINT.pack(value))
        return self

    def pack_hyper(self, value: int) -> "XdrEncoder":
        if not INT64_MIN <= value <= INT64_MAX:
            raise MarshalError(f"int64 out of range: {value}")
        self.buffer.write(_S_HYPER.pack(value))
        return self

    def pack_uhyper(self, value: int) -> "XdrEncoder":
        if not 0 <= value <= 0xFFFFFFFFFFFFFFFF:
            raise MarshalError(f"uint64 out of range: {value}")
        self.buffer.write(_S_UHYPER.pack(value))
        return self

    def pack_bool(self, value: bool) -> "XdrEncoder":
        return self.pack_uint(1 if value else 0)

    # -- floats ------------------------------------------------------------

    def pack_float(self, value: float) -> "XdrEncoder":
        self.buffer.write(_S_FLOAT.pack(value))
        return self

    def pack_double(self, value: float) -> "XdrEncoder":
        self.buffer.write(_S_DOUBLE.pack(value))
        return self

    # -- opaque / strings ----------------------------------------------------

    def pack_fixed_opaque(self, data) -> "XdrEncoder":
        """Fixed-length opaque: bytes + pad, no length prefix."""
        self.buffer.write(data)
        self.buffer.write(_PAD[:-len(data) & 3])
        return self

    def pack_opaque(self, data) -> "XdrEncoder":
        """Variable-length opaque: uint32 length + bytes + pad."""
        n = len(data)
        if n >= ZERO_COPY_THRESHOLD:
            self.pack_uint(n)
            return self.pack_fixed_opaque(data)
        # Small bodies are copied into the buffer anyway: one write.
        self.buffer.write(_S_UINT.pack(n) + data + _PAD[:-n & 3])
        return self

    def pack_string(self, value: str) -> "XdrEncoder":
        return self.pack_opaque(value.encode("utf-8"))

    # -- arrays --------------------------------------------------------------

    def pack_array(self, items, pack_item) -> "XdrEncoder":
        """Variable-length array: uint32 count then each item."""
        items = list(items)
        self.pack_uint(len(items))
        for item in items:
            pack_item(item)
        return self

    def getvalue(self) -> bytes:
        return self.buffer.getvalue()


class XdrDecoder(Cursor):
    """Streaming XDR decoder: every item starts on a 4-byte boundary, so
    fields are read unaligned and opaque bodies skip their pad."""

    __slots__ = ()

    name = "xdr"
    byteorder = "big"

    unpack_int = field(_S_INT)
    unpack_uint = field(_S_UINT)
    unpack_hyper = field(_S_HYPER)
    unpack_uhyper = field(_S_UHYPER)
    unpack_float = field(_S_FLOAT)
    unpack_double = field(_S_DOUBLE)

    def unpack_bool(self) -> bool:
        v = self.unpack_uint()
        if v > 1:
            raise MarshalError(f"XDR bool must be 0 or 1, got {v}")
        return v == 1

    def unpack_fixed_opaque(self, n: int) -> memoryview:
        return self._take(n, -n & 3)

    def unpack_opaque(self) -> memoryview:
        n = self.unpack_uint()
        return self._take(n, -n & 3)
