"""Name service: how clients obtain object references.

In-process registry plus an exportable servant wrapper
(:class:`NameServer`) so the registry itself can be served remotely —
bootstrap with one well-known OR, resolve everything else through it,
exactly the CORBA naming pattern the paper's ORB presumes.

Two design points shared with the replicated directory
(:mod:`repro.directory`), which grows this registry to fleet scale:

* an empty name is an :class:`~repro.exceptions.InvalidNameError` — a
  caller bug (``ValueError`` family), never a lookup that missed;
* the remote ``resolve`` returns a **typed reply** (``found`` flag plus
  the OR and its binding version) instead of marshalling a
  :class:`NameNotFoundError` on every cold lookup — misses are routine
  bootstrap traffic, not exceptions worth a stack-trace round trip;
  they are counted via the ``directory_miss`` event (docs/EVENTS.md).
"""

from __future__ import annotations

import threading
from typing import Dict, List

from repro.core.objref import ObjectReference
from repro.exceptions import (
    InvalidNameError,
    NameAlreadyBoundError,
    NameNotFoundError,
)
from repro.idl.interface import remote_interface, remote_method

__all__ = ["NameService", "NameServer", "resolve_reply", "resolve_oref"]


def _check_name(name: str) -> None:
    if not isinstance(name, str) or not name:
        raise InvalidNameError("names must be non-empty strings")


class NameService:
    """Thread-safe name -> ObjectReference registry."""

    def __init__(self):
        self._bindings: Dict[str, ObjectReference] = {}
        self._lock = threading.Lock()

    def bind(self, name: str, oref: ObjectReference) -> None:
        """Bind a fresh name; raises if already bound."""
        _check_name(name)
        with self._lock:
            if name in self._bindings:
                raise NameAlreadyBoundError(f"name {name!r} already bound")
            self._bindings[name] = oref.clone()

    def rebind(self, name: str, oref: ObjectReference) -> None:
        """Bind or replace."""
        _check_name(name)
        with self._lock:
            self._bindings[name] = oref.clone()

    def resolve(self, name: str) -> ObjectReference:
        _check_name(name)
        with self._lock:
            try:
                return self._bindings[name].clone()
            except KeyError:
                raise NameNotFoundError(f"name {name!r} is not bound") \
                    from None

    def unbind(self, name: str) -> None:
        _check_name(name)
        with self._lock:
            if name not in self._bindings:
                raise NameNotFoundError(f"name {name!r} is not bound")
            del self._bindings[name]

    def rebind_object(self, object_id: str,
                      new_oref: ObjectReference) -> List[str]:
        """Point every alias of ``object_id`` at ``new_oref``.

        Version-checked: an alias is only replaced when ``new_oref`` is
        the same or a newer incarnation (``ObjectReference.version``),
        so a late-arriving publication from an *older* migration cannot
        roll a binding back.  Returns the names that were updated.

        :func:`repro.core.migration.migrate` calls this on the involved
        ORBs' registries, which keeps ``orb.resolve`` answers current
        even after the source context (and its forwarding record) dies.
        """
        updated: List[str] = []
        with self._lock:
            for name, oref in self._bindings.items():
                if oref.object_id != object_id:
                    continue
                if new_oref.version < oref.version:
                    continue
                self._bindings[name] = new_oref.clone()
                updated.append(name)
        return sorted(updated)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._bindings)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._bindings

    def __len__(self) -> int:
        with self._lock:
            return len(self._bindings)


def resolve_reply(service: NameService, name: str, node: str) -> dict:
    """The typed resolve reply shared by :class:`NameServer` and the
    directory replicas: ``found`` flag, OR + version on a hit, and a
    ``directory_miss`` event on a miss (misses are data, not errors)."""
    from repro.core.instrumentation import GLOBAL_HOOKS

    # ``lease_valid`` mirrors the replicated directory's reply shape: a
    # single NameServer is always authoritative for its own misses.
    try:
        oref = service.resolve(name)
    except NameNotFoundError:
        GLOBAL_HOOKS.emit("directory_miss", name=name, node=node)
        return {"found": False, "name": name, "node": node,
                "lease_valid": True}
    return {"found": True, "name": name, "node": node, "oref": oref,
            "version": oref.version, "lease_valid": True}


def resolve_oref(resolver, name: str) -> ObjectReference:
    """Resolve through any typed-reply resolver (a narrowed
    :class:`NameServer` stub, a raw GP, ...) and unwrap: the OR on a
    hit, :class:`NameNotFoundError` on a miss."""
    reply = resolver.resolve(name)
    if isinstance(reply, ObjectReference):  # a plain NameService
        return reply
    if not reply.get("found"):
        raise NameNotFoundError(f"name {name!r} is not bound")
    return reply["oref"]


@remote_interface("NameServer")
class NameServer:
    """Remote facade over a :class:`NameService`.

    ORs are marshallable values, so the remote signatures traffic in
    them directly.  ``resolve`` answers with the typed reply described
    in the module docstring; unwrap it with :func:`resolve_oref`.
    """

    def __init__(self, service: NameService, *, node: str = "nameserver"):
        self._service = service
        self._node = node

    @remote_method
    def bind(self, name: str, oref) -> None:
        self._service.bind(name, oref)

    @remote_method
    def rebind(self, name: str, oref) -> None:
        self._service.rebind(name, oref)

    @remote_method(retry_safe=True)
    def resolve(self, name: str) -> dict:
        return resolve_reply(self._service, name, self._node)

    @remote_method
    def unbind(self, name: str) -> None:
        self._service.unbind(name)

    @remote_method(returns="list")
    def names(self) -> list:
        return self._service.names()
