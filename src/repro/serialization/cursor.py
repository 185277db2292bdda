"""The read cursor both decoders share: one memoryview, one offset.

A decoder reads every field straight out of the incoming message with
``struct.unpack_from`` after a single bounds check, and returns opaque
bodies as ``memoryview`` slices of that message, so decoding a 4 MB array
argument copies nothing (§3.2).  A read that would run past the end raises
:class:`~repro.exceptions.BufferUnderflowError` and leaves the cursor
where it was.
"""

from __future__ import annotations

import struct

from repro.exceptions import BufferUnderflowError, MarshalError

__all__ = ["Cursor", "field"]


def _underflow(n: int, pos: int, end: int) -> BufferUnderflowError:
    return BufferUnderflowError(
        f"need {n} bytes at offset {pos}, only {end - pos} remain")


def field(s: struct.Struct, aligned: bool = False):
    """A decoder method reading one ``s``-packed value at the cursor.

    ``aligned`` first skips to the next multiple of ``s.size`` counted
    from the start of the message (CDR natural alignment).
    """
    size, unpack_from = s.size, s.unpack_from

    def read(self):
        pos = self._pos
        if aligned:
            pos += -pos % size
        end = pos + size
        if end > self._end:
            raise _underflow(end - self._pos, self._pos, self._end)
        self._pos = end
        return unpack_from(self._view, pos)[0]

    return read


class Cursor:
    """Zero-copy sequential reads over a ``bytes``-like message."""

    __slots__ = ("_view", "_pos", "_end")

    def __init__(self, data):
        self._view = memoryview(data)
        self._pos = 0
        self._end = len(self._view)

    def _take(self, n: int, pad: int = 0) -> memoryview:
        """A view of the next ``n`` bytes; advance past them and ``pad``."""
        if n < 0:
            raise MarshalError(f"negative read length {n}")
        pos = self._pos
        end = pos + n + pad
        if end > self._end:
            raise _underflow(n + pad, pos, self._end)
        self._pos = end
        return self._view[pos:pos + n]

    def unpack_string(self) -> str:
        try:
            return str(self.unpack_opaque(), "utf-8")
        except UnicodeDecodeError as exc:
            raise MarshalError(f"string is not UTF-8: {exc}") from None

    def unpack_array(self, unpack_item) -> list:
        return [unpack_item() for _ in range(self.unpack_uint())]

    def rest(self) -> memoryview:
        """View of everything from the cursor to the end; consumes it."""
        out = self._view[self._pos:]
        self._pos = self._end
        return out

    def done(self) -> bool:
        return self._pos == self._end
