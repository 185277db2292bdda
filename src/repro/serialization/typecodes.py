"""Typecode tags for the self-describing marshaller.

Every marshalled value is prefixed by a one-byte :class:`TypeCode` so the
receiving side can decode without out-of-band schema.  The numeric values
are part of the wire format — append, never renumber.
"""

from __future__ import annotations

import enum

__all__ = ["TypeCode", "ARRAY_DTYPES"]


class TypeCode(enum.IntEnum):
    """One-byte wire tags for marshalled values."""

    NONE = 0
    BOOL = 1
    INT32 = 2
    INT64 = 3
    BIGINT = 4          # arbitrary precision, two's-complement opaque
    FLOAT64 = 5
    STRING = 6          # UTF-8
    BYTES = 7
    LIST = 8
    TUPLE = 9
    DICT = 10
    NDARRAY = 11        # numpy array: dtype code + shape + raw buffer
    SET = 12
    COMPLEX128 = 13
    EXCEPTION = 14      # remote exception envelope: (type name, message)
    OBJREF = 15         # nested object reference (marshalled descriptor)
    FLOAT32 = 16


#: dtype code -> numpy dtype string for NDARRAY payloads.  Codes are wire
#: format; append only.  All dtypes are explicit-endian so a heterogeneous
#: pairing (XDR big-endian vs CDR little-endian hosts) stays well-defined.
ARRAY_DTYPES = {
    0: "<i1",
    1: "<i2",
    2: "<i4",
    3: "<i8",
    4: "<u1",
    5: "<u2",
    6: "<u4",
    7: "<u8",
    8: "<f4",
    9: "<f8",
    10: "<c8",
    11: "<c16",
    12: "|b1",
}
