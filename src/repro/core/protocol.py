"""Proto-classes and proto-objects (§3.1).

"A proto-object encapsulates a specific communication protocol ... (a
proto-object is an instance of a proto-class)."  In this library:

* a :class:`ProtocolClass` is the registered *type* of a protocol: it
  knows its applicability rule and how to build a client-side
  proto-object from an OR entry;
* a :class:`ProtocolClient` is the client-side proto-object: it owns a
  connection (startpoint) and performs marshalled invocations.

Custom protocols (§3.2, second aspect) are ordinary subclasses registered
with :func:`register_proto_class` — "users write their own proto-classes
that satisfy a standard interface".

Two concrete protocols live here:

* ``nexus`` — the general-purpose protocol: any transport, applicable
  everywhere (the paper's "Nexus based protocol that uses TCP").
* ``shm``  — the shared-memory protocol, applicable only on one machine.

The capability-carrying ``glue`` protocol is in :mod:`repro.core.glue`.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Optional, Type

from repro.core.objref import ProtocolEntry
from repro.core.request import (
    Invocation,
    decode_reply,
    encode_invocation,
)
from repro.core.selection import Locality, rule_applies
from repro.exceptions import (
    DeadlineExceededError,
    OverloadError,
    ProtocolError,
    TransportError,
    UnknownProtocolError,
)
from repro.nexus.endpoint import PipelinedStartpoint, Startpoint
from repro.serialization.cdr import CdrDecoder, CdrEncoder
from repro.serialization.marshal import BatchReply, BatchRequest, Marshaller
from repro.serialization.xdr import XdrDecoder, XdrEncoder

__all__ = [
    "ProtocolClient",
    "ProtocolClass",
    "PROTO_CLASSES",
    "register_proto_class",
    "get_proto_class",
    "INVOKE_HANDLER",
    "GLUE_HANDLER",
    "BATCH_HANDLER",
    "GLUE_BATCH_HANDLER",
    "marshaller_for",
]

#: RSR handler names used by the invocation path (Figure 1 / Figure 2).
INVOKE_HANDLER = "hpc.invoke"
GLUE_HANDLER = "hpc.glue"
#: Batched variants: the payload is one BatchRequest record carrying
#: many sub-invocations; the reply is one BatchReply.
BATCH_HANDLER = "hpc.invoke.batch"
GLUE_BATCH_HANDLER = "hpc.glue.batch"

_MARSHALLERS = {
    "xdr": Marshaller(XdrEncoder, XdrDecoder),
    "cdr": Marshaller(CdrEncoder, CdrDecoder),
}


def marshaller_for(encoding: str) -> Marshaller:
    """The shared marshaller for a named encoding (``xdr`` or ``cdr``)."""
    try:
        return _MARSHALLERS[encoding]
    except KeyError:
        raise ProtocolError(f"unknown encoding {encoding!r}") from None


class ProtocolClient(abc.ABC):
    """Client-side proto-object: a connected invoker."""

    def __init__(self, entry: ProtocolEntry, context):
        self.entry = entry
        self.context = context
        self.marshaller = marshaller_for(
            entry.proto_data.get("encoding", "xdr"))
        #: Per-client call timeout; defaults to the context-wide value.
        #: The health monitor tightens this for probes.
        self.timeout = context.call_timeout
        self._startpoint: Optional[Startpoint] = None

    # -- connection management -------------------------------------------------

    def _connect(self) -> Startpoint:
        """Open (and cache) the startpoint to the first reachable
        address in the entry's address list (multimethod fallback).

        Wall-clock socket (tcp) channels always get a
        :class:`PipelinedStartpoint` (many outstanding requests per
        connection, demuxed by correlation id).  In-process channels and the synchronous simulated world keep
        the lock-step startpoint: a queue pair has no round trip to
        hide, and serializing per channel keeps an eviction mid-call a
        single-request failure instead of a mass kill of every
        in-flight waiter.
        """
        if self._startpoint is not None:
            return self._startpoint
        addresses = self.entry.proto_data.get("addresses", [])
        errors = []
        for address in addresses:
            transport = self.context.transports.get(address.get("transport"))
            if transport is None:
                errors.append(f"{address.get('transport')}: not available "
                              "in this context")
                continue
            try:
                channel = transport.connect(address)
            except TransportError as exc:
                errors.append(f"{address.get('transport')}: {exc}")
                continue
            pipelined = (address.get("transport") == "tcp"
                         and self.context.sim is None)
            sp_cls = PipelinedStartpoint if pipelined else Startpoint
            self._startpoint = sp_cls(channel, timeout=self.timeout)
            return self._startpoint
        raise ProtocolError(
            "no reachable address for protocol "
            f"{self.entry.proto_id!r}: {errors or 'empty address list'}")

    def call_raw(self, handler: str, payload: bytes, oneway: bool = False,
                 priority: int = 0,
                 deadline: Optional[float] = None) -> Optional[bytes]:
        """One RSR to the server endpoint, reconnecting once on a dead
        cached channel.  ``priority``/``deadline`` (remaining seconds)
        ride the RSR META trailer as the server's admission hints."""
        sp = self._connect()
        try:
            return sp.call(handler, payload, oneway=oneway,
                           priority=priority, deadline=deadline)
        except OverloadError:
            # The server *answered* — with pushback.  The connection is
            # healthy; an immediate fresh-channel resend would be
            # exactly the blind retry the hint asks us not to make.
            raise
        except TransportError as exc:
            # Cached connection went stale (peer restarted): retry fresh
            # — but only when the request provably never left this host;
            # anything that may have reached dispatch belongs to the
            # idempotence-aware retry layer in the GP.
            self.close()
            if getattr(exc, "request_sent", False) \
                    or getattr(exc, "request_dispatched", False):
                raise
            sp = self._connect()
            return sp.call(handler, payload, oneway=oneway,
                           priority=priority, deadline=deadline)

    # -- invocation --------------------------------------------------------------

    def _admission_hints(self,
                         invocation: Invocation) -> tuple[int, Optional[float]]:
        """The (priority, remaining-deadline) pair to stamp on the wire.

        The invocation's deadline is absolute on the calling context's
        clock; the wire carries the *remainder*.  A budget that is
        already gone fails fast here — no round trip for a request the
        server would shed on arrival.
        """
        remaining = None
        if invocation.deadline is not None:
            remaining = invocation.deadline - self.context.clock.now()
            if remaining <= 0:
                raise DeadlineExceededError(
                    f"deadline already expired before sending "
                    f"{invocation.method!r}")
        return invocation.priority, remaining

    def invoke(self, invocation: Invocation) -> Any:
        """Marshal, send, decode.  The default path used by ``nexus`` and
        ``shm``; ``glue`` overrides to weave capabilities in."""
        priority, remaining = self._admission_hints(invocation)
        payload = encode_invocation(self.marshaller, invocation)
        self.context.charge_cost("memcpy", len(payload))
        reply = self.call_raw(INVOKE_HANDLER, payload,
                              oneway=invocation.oneway,
                              priority=priority, deadline=remaining)
        if invocation.oneway:
            return None
        return decode_reply(self.marshaller, reply)

    def invoke_batch(self, payloads, priority: int = 0,
                     deadline: Optional[float] = None) -> list:
        """One round trip for many encoded invocations.

        ``payloads`` are encoded invocation records (what
        :func:`~repro.core.request.encode_invocation` produces); the
        return value is the list of raw reply envelopes in sub-request
        order.  Decoding each envelope — and therefore per-member
        success/failure — is the caller's business, so one failed member
        never poisons its batch-mates.  ``deadline`` is remaining
        seconds; the server's admission layer accounts the batch as N
        units and sheds it atomically with one pushback reply.
        """
        record = BatchRequest.of(payloads).to_bytes()
        self.context.charge_cost("memcpy", len(record))
        reply = self.call_raw(BATCH_HANDLER, record, priority=priority,
                              deadline=deadline)
        return BatchReply.from_bytes(reply).in_order(len(payloads))

    def close(self) -> None:
        if self._startpoint is not None:
            self._startpoint.close()
            self._startpoint = None


class ProtocolClass(abc.ABC):
    """Registered protocol type: applicability + client factory."""

    #: Registry key, also the proto id appearing in ORs.
    proto_id: str = ""
    #: Default applicability rule (overridable per entry via proto-data).
    default_applicability: str = "always"
    #: Client proto-object class.
    client_cls: Type[ProtocolClient] = ProtocolClient

    @classmethod
    def applicability_rule(cls, entry: ProtocolEntry) -> str:
        return entry.proto_data.get("applicability",
                                    cls.default_applicability)

    @classmethod
    def applicable(cls, entry: ProtocolEntry, locality: Locality,
                   context) -> bool:
        """Is this entry usable for the given client/server relationship?

        Subclasses extend (the glue protocol ANDs its capabilities)."""
        return rule_applies(cls.applicability_rule(entry), locality)

    @classmethod
    def make_client(cls, entry: ProtocolEntry, context) -> ProtocolClient:
        return cls.client_cls(entry, context)


PROTO_CLASSES: Dict[str, Type[ProtocolClass]] = {}


def register_proto_class(cls: Type[ProtocolClass],
                         replace: bool = False) -> Type[ProtocolClass]:
    """Register a proto-class (usable as a decorator) — the standard
    interface custom protocols plug into."""
    if not cls.proto_id:
        raise ProtocolError(f"{cls.__name__} has no proto_id")
    if cls.proto_id in PROTO_CLASSES and not replace:
        raise ProtocolError(
            f"proto-class {cls.proto_id!r} already registered")
    PROTO_CLASSES[cls.proto_id] = cls
    return cls


def get_proto_class(proto_id: str) -> Type[ProtocolClass]:
    try:
        return PROTO_CLASSES[proto_id]
    except KeyError:
        raise UnknownProtocolError(
            f"no proto-class registered for {proto_id!r}") from None


# ---------------------------------------------------------------------------
# Built-in protocols
# ---------------------------------------------------------------------------


@register_proto_class
class NexusProtocol(ProtocolClass):
    """General-purpose protocol over any transport ("Nexus based")."""

    proto_id = "nexus"
    default_applicability = "always"


@register_proto_class
class ShmProtocol(ProtocolClass):
    """Shared-memory protocol; same machine only (§4.3)."""

    proto_id = "shm"
    default_applicability = "same-machine"
