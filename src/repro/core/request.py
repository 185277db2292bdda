"""Invocation and reply wire model.

An :class:`Invocation` is what the GP marshals and what the server
dispatches: ``(object id, method, args)``.  Replies use a small status
envelope so the three outcomes the ORB distinguishes — a value, a remote
exception, or a *moved* notice carrying the forwarding OR (migration,
§4.3) — all flow through the same capability processing path.

Both directions go through the value marshaller, so arguments may be any
marshallable value including numpy arrays and other object references.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.exceptions import (
    MarshalError,
    ObjectMovedError,
    OverloadError,
    RemoteException,
)
from repro.serialization.marshal import Marshaller

__all__ = ["Invocation", "ReplyStatus", "RequestMeta",
           "encode_invocation", "decode_invocation",
           "encode_reply_ok", "encode_reply_exception",
           "encode_reply_moved", "encode_reply_overload", "decode_reply"]


class ReplyStatus(enum.IntEnum):
    """Outcome discriminator in the reply envelope."""

    OK = 0
    EXCEPTION = 1
    MOVED = 2
    OVERLOAD = 3


@dataclass(frozen=True)
class Invocation:
    """One remote method invocation.

    ``priority`` and ``deadline`` are *local* admission hints — they
    ride the RSR trailer, not the invocation record, so
    :func:`encode_invocation` deliberately leaves them out.  ``deadline``
    is absolute on the calling context's clock; the protocol client
    converts it to remaining seconds at send time.
    """

    object_id: str
    method: str
    args: Tuple = ()
    oneway: bool = False
    priority: int = 0
    deadline: Optional[float] = None


@dataclass
class RequestMeta:
    """Per-request context threaded through capability processing.

    ``principal`` is set by the server half of the authentication
    capability and consulted by the ACL check at dispatch.
    """

    direction: str = "request"      # "request" | "reply"
    principal: Optional[object] = None
    properties: dict = field(default_factory=dict)


def encode_invocation(m: Marshaller, inv: Invocation) -> bytes:
    return m.dumps_many([inv.object_id, inv.method, list(inv.args),
                         bool(inv.oneway)])


def decode_invocation(m: Marshaller, data) -> Invocation:
    object_id, method, args, oneway = m.loads_many(data, 4)
    if not (isinstance(object_id, str) and isinstance(method, str)
            and isinstance(args, list) and isinstance(oneway, bool)):
        raise MarshalError("malformed invocation payload")
    return Invocation(object_id=object_id, method=method, args=tuple(args),
                      oneway=oneway)


def encode_reply_ok(m: Marshaller, value) -> bytes:
    return m.dumps_many([int(ReplyStatus.OK), value])


def encode_reply_exception(m: Marshaller, exc: BaseException) -> bytes:
    return m.dumps_many([int(ReplyStatus.EXCEPTION),
                         (type(exc).__name__, str(exc))])


def encode_reply_moved(m: Marshaller, forward_bytes: bytes) -> bytes:
    return m.dumps_many([int(ReplyStatus.MOVED), forward_bytes])


def encode_reply_overload(m: Marshaller, retry_after: float,
                          reason: str = "overload") -> bytes:
    """An in-envelope pushback: the dispatch layer itself shed the call
    (e.g. its propagated deadline had already expired).  Used where the
    reply must flow through normal capability processing — the
    endpoint-level shed path uses the RSR OVERLOAD flag instead."""
    return m.dumps_many([int(ReplyStatus.OVERLOAD),
                         (float(retry_after), reason)])


def _is_pair(value, first: type, second: type) -> bool:
    return (type(value) is tuple and len(value) == 2
            and isinstance(value[0], first) and isinstance(value[1], second))


def decode_reply(m: Marshaller, data):
    """Decode a reply envelope; returns the value or raises the carried
    :class:`RemoteException` / :class:`ObjectMovedError` /
    :class:`OverloadError`, or :class:`MarshalError` when malformed."""
    status, payload = m.loads_many(data, 2)
    if type(status) is not int:
        raise MarshalError(f"reply status {status!r} is not an int")
    if status == ReplyStatus.OK:
        return payload
    if status == ReplyStatus.EXCEPTION and _is_pair(payload, str, str):
        raise RemoteException(*payload)
    if status == ReplyStatus.OVERLOAD and _is_pair(payload, float, str):
        retry_after, reason = payload
        raise OverloadError(
            f"request shed by server ({reason}); retry after "
            f"{retry_after:.3f}s", retry_after=retry_after, reason=reason)
    if status == ReplyStatus.MOVED and isinstance(payload, bytes):
        # The payload is the forwarding OR in wire bytes.
        from repro.core.objref import ObjectReference

        forward = ObjectReference.from_bytes(payload)
        raise ObjectMovedError(
            f"object {forward.object_id} moved to context "
            f"{forward.context_id}", forward=forward)
    raise MarshalError(f"malformed reply envelope: status {status}, "
                       f"{type(payload).__name__} payload")
