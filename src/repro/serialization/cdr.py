"""CDR-style encoder/decoder: little-endian with natural alignment.

CORBA GIOP messages use Common Data Representation — sender-chosen byte
order with every primitive aligned to its own size.  This module implements
the little-endian flavour so the library has a second, genuinely different
wire format next to XDR: a proto-object built over CDR and one built over
XDR can coexist in the same protocol table, which is exactly the
"multiple concurrent protocols" configuration of §3.2.

The class interface intentionally mirrors :mod:`repro.serialization.xdr`
(``pack_int``/``unpack_int``...), so the marshaller treats codecs as
interchangeable duck types.
"""

from __future__ import annotations

import struct

from repro.exceptions import MarshalError
from repro.serialization.cursor import Cursor, field
from repro.util.bytesbuf import ByteBuffer

__all__ = ["CdrEncoder", "CdrDecoder"]

_S_INT = struct.Struct("<i")
_S_UINT = struct.Struct("<I")
_S_HYPER = struct.Struct("<q")
_S_UHYPER = struct.Struct("<Q")
_S_FLOAT = struct.Struct("<f")
_S_DOUBLE = struct.Struct("<d")
_S_OCTET = struct.Struct("B")

INT32_MIN = -(2 ** 31)
INT32_MAX = 2 ** 31 - 1
INT64_MIN = -(2 ** 63)
INT64_MAX = 2 ** 63 - 1

_ZEROS = b"\x00" * 8


class CdrEncoder:
    """Streaming little-endian CDR encoder with natural alignment.

    Alignment is tracked against the start of the encapsulation (offset 0
    of this encoder's buffer), per CORBA encapsulation rules.
    """

    name = "cdr"
    byteorder = "little"

    def __init__(self, buffer: ByteBuffer | None = None):
        self.buffer = buffer if buffer is not None else ByteBuffer()

    def _align(self, size: int) -> None:
        r = len(self.buffer) % size
        if r:
            self.buffer.write(_ZEROS[: size - r])

    # -- integers ----------------------------------------------------------

    def pack_int(self, value: int) -> "CdrEncoder":
        if not INT32_MIN <= value <= INT32_MAX:
            raise MarshalError(f"int32 out of range: {value}")
        self._align(4)
        self.buffer.write(_S_INT.pack(value))
        return self

    def pack_uint(self, value: int) -> "CdrEncoder":
        if not 0 <= value <= 0xFFFFFFFF:
            raise MarshalError(f"uint32 out of range: {value}")
        self._align(4)
        self.buffer.write(_S_UINT.pack(value))
        return self

    def pack_hyper(self, value: int) -> "CdrEncoder":
        if not INT64_MIN <= value <= INT64_MAX:
            raise MarshalError(f"int64 out of range: {value}")
        self._align(8)
        self.buffer.write(_S_HYPER.pack(value))
        return self

    def pack_uhyper(self, value: int) -> "CdrEncoder":
        if not 0 <= value <= 0xFFFFFFFFFFFFFFFF:
            raise MarshalError(f"uint64 out of range: {value}")
        self._align(8)
        self.buffer.write(_S_UHYPER.pack(value))
        return self

    def pack_bool(self, value: bool) -> "CdrEncoder":
        # CDR booleans are single octets, no alignment.
        self.buffer.write(b"\x01" if value else b"\x00")
        return self

    # -- floats ------------------------------------------------------------

    def pack_float(self, value: float) -> "CdrEncoder":
        self._align(4)
        self.buffer.write(_S_FLOAT.pack(value))
        return self

    def pack_double(self, value: float) -> "CdrEncoder":
        self._align(8)
        self.buffer.write(_S_DOUBLE.pack(value))
        return self

    # -- opaque / strings ----------------------------------------------------

    def pack_fixed_opaque(self, data) -> "CdrEncoder":
        """Raw octet sequence: no alignment, no padding, no length."""
        self.buffer.write(data)
        return self

    def pack_opaque(self, data) -> "CdrEncoder":
        self.pack_uint(len(data))
        return self.pack_fixed_opaque(data)

    def pack_string(self, value: str) -> "CdrEncoder":
        return self.pack_opaque(value.encode("utf-8"))

    # -- arrays --------------------------------------------------------------

    def pack_array(self, items, pack_item) -> "CdrEncoder":
        items = list(items)
        self.pack_uint(len(items))
        for item in items:
            pack_item(item)
        return self

    def getvalue(self) -> bytes:
        return self.buffer.getvalue()


class CdrDecoder(Cursor):
    """Streaming little-endian CDR decoder: each primitive is aligned to
    its own size, counted from the start of the message."""

    __slots__ = ()

    name = "cdr"
    byteorder = "little"

    unpack_int = field(_S_INT, aligned=True)
    unpack_uint = field(_S_UINT, aligned=True)
    unpack_hyper = field(_S_HYPER, aligned=True)
    unpack_uhyper = field(_S_UHYPER, aligned=True)
    unpack_float = field(_S_FLOAT, aligned=True)
    unpack_double = field(_S_DOUBLE, aligned=True)
    _unpack_octet = field(_S_OCTET)

    def unpack_bool(self) -> bool:
        v = self._unpack_octet()
        if v > 1:
            raise MarshalError(f"CDR bool must be 0 or 1, got {v}")
        return v == 1

    def unpack_fixed_opaque(self, n: int) -> memoryview:
        return self._take(n)

    def unpack_opaque(self) -> memoryview:
        return self._take(self.unpack_uint())
