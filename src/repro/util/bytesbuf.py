"""Growable byte buffer with a zero-copy large-chunk path.

The Open HPC++ paper stresses that "no extra data copying is done over and
above that done by the proto-object's protocol implementation" (§3.2).
:class:`ByteBuffer` is how outgoing messages honour that in Python: writers
append ``bytes``-like chunks; large chunks (above
:data:`ZERO_COPY_THRESHOLD`) are *referenced*, not copied, until the final
:meth:`ByteBuffer.getvalue` concatenation, and :meth:`ByteBuffer.chunks`
exposes the raw chunk list so a gather-capable transport can write them
without any join at all (the Python analogue of ``writev``).  Incoming
messages are read by the decoders' own cursor
(:mod:`repro.serialization.cursor`).
"""

from __future__ import annotations

from typing import Iterable, List, Union

BytesLike = Union[bytes, bytearray, memoryview]

#: Chunks at or above this size are kept by reference instead of being
#: copied into the tail accumulation buffer.
ZERO_COPY_THRESHOLD = 512


class ByteBuffer:
    """An append-only buffer of byte chunks with a zero-copy large-chunk path.

    Small writes are coalesced into a shared ``bytearray`` tail to avoid a
    long list of tiny chunks; writes of at least :data:`ZERO_COPY_THRESHOLD`
    bytes are stored by reference.
    """

    __slots__ = ("_chunks", "_tail", "_length")

    def __init__(self, initial: BytesLike | None = None):
        self._chunks: List[BytesLike] = []
        self._tail = bytearray()
        self._length = 0
        if initial:
            self.write(initial)

    def __len__(self) -> int:
        return self._length

    def write(self, data: BytesLike) -> "ByteBuffer":
        """Append ``data``; returns ``self`` for chaining."""
        n = len(data)
        if n == 0:
            return self
        if n >= ZERO_COPY_THRESHOLD:
            self._flush_tail()
            # Freeze mutable inputs: the caller may mutate a bytearray
            # after handing it to us, which would corrupt the message.
            if isinstance(data, bytearray):
                data = bytes(data)
            elif isinstance(data, memoryview) and not data.readonly:
                data = data.toreadonly()
            self._chunks.append(data)
        else:
            self._tail += data
        self._length += n
        return self

    def write_many(self, parts: Iterable[BytesLike]) -> "ByteBuffer":
        for part in parts:
            self.write(part)
        return self

    def _flush_tail(self) -> None:
        if self._tail:
            self._chunks.append(bytes(self._tail))
            self._tail = bytearray()

    def chunks(self) -> List[BytesLike]:
        """The chunk list, suitable for a gather-write transport."""
        self._flush_tail()
        return list(self._chunks)

    def getvalue(self) -> bytes:
        """Concatenate all chunks into a single immutable ``bytes``."""
        self._flush_tail()
        if len(self._chunks) == 1 and isinstance(self._chunks[0], bytes):
            return self._chunks[0]
        return b"".join(bytes(c) if not isinstance(c, bytes) else c
                        for c in self._chunks)

    def clear(self) -> None:
        self._chunks.clear()
        self._tail = bytearray()
        self._length = 0
