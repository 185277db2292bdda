"""Remote service request wire format.

An RSR message is an XDR stream::

    uint    flags        (request/reply/error/oneway/meta/overload bits)
    uhyper  request_id
    string  handler      (empty in replies)
    opaque  payload
    [uint   priority     -- present iff META
     bool   has_deadline
     double deadline]    -- remaining seconds, relative (see below)

The payload is opaque at this layer — protocol objects put marshalled
argument tuples in it, and the glue protocol puts *capability-processed*
bytes in it, which is exactly the layering Figure 2 draws.

The META trailer carries admission-control hints.  ``priority`` is the
request's admission class ordinal (0 = interactive); ``deadline`` is the
*remaining* time budget in seconds — relative, not an absolute
timestamp, so it survives the sender and receiver disagreeing about
what time it is.  Requests without hints omit the trailer entirely, so
pre-admission peers and recorded wire goldens decode unchanged.

An OVERLOAD reply is the server's pushback: the request was shed before
dispatch and the payload is an
:func:`~repro.serialization.marshal.encode_overload_info` record.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import MarshalError
from repro.serialization.xdr import XdrDecoder, XdrEncoder

__all__ = ["RsrFlags", "RsrMessage"]

#: The fixed ``(flags, request_id)`` header: XDR uint + uhyper.
_HEADER = struct.Struct(">IQ")


class RsrFlags(enum.IntFlag):
    """Message-kind bits."""

    REQUEST = 0x1
    REPLY = 0x2
    ERROR = 0x4      # reply carrying a marshalled remote exception
    ONEWAY = 0x8     # request not expecting a reply
    META = 0x10      # request carrying a priority/deadline trailer
    OVERLOAD = 0x20  # reply: request shed by admission control


@dataclass(frozen=True)
class RsrMessage:
    """One RSR on the wire."""

    flags: RsrFlags
    request_id: int
    handler: str
    payload: bytes
    #: Admission class ordinal (0 = interactive); wire-present iff META.
    priority: int = 0
    #: Remaining time budget in seconds (relative), or None.
    deadline: Optional[float] = None

    def is_request(self) -> bool:
        return bool(self.flags & RsrFlags.REQUEST)

    def is_reply(self) -> bool:
        return bool(self.flags & RsrFlags.REPLY)

    def is_error(self) -> bool:
        return bool(self.flags & RsrFlags.ERROR)

    def is_oneway(self) -> bool:
        return bool(self.flags & RsrFlags.ONEWAY)

    def is_overload(self) -> bool:
        return bool(self.flags & RsrFlags.OVERLOAD)

    def encode(self) -> bytes:
        try:
            header = _HEADER.pack(self.flags, self.request_id)
        except struct.error as exc:
            raise MarshalError(f"RSR header out of range: {exc}") from None
        enc = XdrEncoder()
        enc.pack_fixed_opaque(header)
        enc.pack_string(self.handler)
        enc.pack_opaque(self.payload)
        if self.flags & RsrFlags.META:
            enc.pack_uint(self.priority)
            enc.pack_bool(self.deadline is not None)
            enc.pack_double(0.0 if self.deadline is None else self.deadline)
        return enc.getvalue()

    @classmethod
    def decode(cls, data) -> "RsrMessage":
        dec = XdrDecoder(data)
        flags, request_id = _HEADER.unpack(dec.unpack_fixed_opaque(
            _HEADER.size))
        flags = RsrFlags(flags)
        handler = dec.unpack_string()
        payload = bytes(dec.unpack_opaque())
        priority = 0
        deadline: Optional[float] = None
        if flags & RsrFlags.META:
            priority = dec.unpack_uint()
            has_deadline = dec.unpack_bool()
            value = dec.unpack_double()
            deadline = value if has_deadline else None
        if not (flags & (RsrFlags.REQUEST | RsrFlags.REPLY)):
            raise MarshalError("RSR is neither request nor reply")
        return cls(flags=flags, request_id=request_id, handler=handler,
                   payload=payload, priority=priority, deadline=deadline)

    # -- constructors --------------------------------------------------------

    @classmethod
    def request(cls, request_id: int, handler: str, payload: bytes,
                oneway: bool = False, priority: int = 0,
                deadline: Optional[float] = None) -> "RsrMessage":
        flags = RsrFlags.REQUEST | (RsrFlags.ONEWAY if oneway
                                    else RsrFlags(0))
        if priority != 0 or deadline is not None:
            flags |= RsrFlags.META
        return cls(flags=flags, request_id=request_id, handler=handler,
                   payload=payload, priority=priority, deadline=deadline)

    @classmethod
    def reply(cls, request_id: int, payload: bytes) -> "RsrMessage":
        return cls(flags=RsrFlags.REPLY, request_id=request_id,
                   handler="", payload=payload)

    @classmethod
    def error(cls, request_id: int, payload: bytes) -> "RsrMessage":
        return cls(flags=RsrFlags.REPLY | RsrFlags.ERROR,
                   request_id=request_id, handler="", payload=payload)

    @classmethod
    def overload(cls, request_id: int, payload: bytes) -> "RsrMessage":
        """A pushback reply; the payload is an overload-info record."""
        return cls(flags=RsrFlags.REPLY | RsrFlags.ERROR | RsrFlags.OVERLOAD,
                   request_id=request_id, handler="", payload=payload)
