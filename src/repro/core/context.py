"""Contexts: the HPC++ virtual address space, hosting servants.

"A context refers to a virtual address space" (§2).  A
:class:`Context` is the server *and* client home of objects:

* it serves exported objects through a multi-method endpoint (one
  listener per transport);
* it owns the client-side machinery a GP needs: transports, a protocol
  pool, a key store, a clock, and the CPU-cost charging hook for the
  simulator;
* it carries a *placement* (machine / LAN / site), either derived from a
  simulated machine or declared as plain tags, which applicability
  predicates compare.

The request path implements Figures 1 and 2: ``hpc.invoke`` is the plain
proto-object entrance, ``hpc.glue`` the capability-processing entrance,
``hpc.control`` the small control surface (dynamic capability
negotiation, migration assistance).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.admission import (
    AdmissionController,
    AdmissionPolicy,
    ambient_deadline,
)
from repro.core.batching import BatchPolicy
from repro.core.glue import (
    GLUE_REPLY_BARE,
    GLUE_REPLY_PROCESSED,
    ServerGlueStack,
    decode_glue_envelope,
    encode_glue_reply,
)
from repro.core.monitor import LoadMonitor
from repro.core.objref import ObjectReference, ProtocolEntry
from repro.core.peers import PeerTable
from repro.core.proto_pool import ProtocolPool
from repro.core.protocol import (
    BATCH_HANDLER,
    GLUE_BATCH_HANDLER,
    GLUE_HANDLER,
    INVOKE_HANDLER,
    marshaller_for,
)
from repro.core.resilience import HedgePolicy
from repro.core.request import (
    RequestMeta,
    decode_invocation,
    encode_reply_exception,
    encode_reply_moved,
    encode_reply_ok,
    encode_reply_overload,
)
from repro.core.selection import Locality
from repro.exceptions import (
    AuthenticationError,
    CapabilityError,
    HpcError,
    InterfaceError,
    MethodNotExposedError,
    ObjectNotFoundError,
)
from repro.idl.interface import InterfaceView, interface_of
from repro.idl.types import InterfaceSpec
from repro.nexus.multimethod import MultiMethodServer
from repro.security.acl import AccessControlList
from repro.security.keys import KeyStore
from repro.serialization.marshal import BatchReply, BatchRequest
from repro.simnet.linktypes import TCP_LOOPBACK
from repro.transport.simtransport import SimShmTransport, SimTransport
from repro.util.ids import IdGenerator
from repro.util.timing import WallClock

__all__ = ["Placement", "Context", "ServantRecord", "CONTROL_HANDLER"]

CONTROL_HANDLER = "hpc.control"


@dataclass(frozen=True)
class Placement:
    """Where a context lives, at applicability granularity."""

    machine: str = "local"
    lan: str = "local-lan"
    site: str = "local-site"

    def locality_to(self, other: "Placement") -> Locality:
        if self.machine == other.machine:
            return Locality(True, True, True)
        if self.lan == other.lan:
            return Locality(False, True, True)
        if self.site == other.site:
            return Locality(False, False, True)
        return Locality(False, False, False)

    def to_wire(self) -> dict:
        return {"machine": self.machine, "lan": self.lan, "site": self.site}

    @classmethod
    def from_wire(cls, data: dict) -> "Placement":
        return cls(machine=data.get("machine", "local"),
                   lan=data.get("lan", "local-lan"),
                   site=data.get("site", "local-site"))


@dataclass
class ServantRecord:
    """One exported object."""

    object_id: str
    instance: object
    spec: InterfaceSpec
    acl: Optional[AccessControlList]
    glue: List[tuple]  # [(glue_id, descriptors), ...]
    migratable: bool = True
    #: Incarnation number of this export: 0 for a fresh export, bumped
    #: by each migration hop so OR versions increase strictly along a
    #: migration chain (A -> B -> C), wherever each hop started from.
    version: int = 0


class Context:
    """One virtual address space: servant host + client runtime."""

    _ids = IdGenerator("ctx")

    def __init__(self, orb, name: Optional[str] = None, machine=None,
                 placement: Optional[Placement] = None,
                 encoding: str = "xdr", enable_tcp: bool = False,
                 pool: Optional[ProtocolPool] = None):
        self.orb = orb
        self.id = name or self._ids.next_id()
        self.sim = orb.sim
        self.encoding = encoding
        self.marshaller = marshaller_for(encoding)
        self.call_timeout: Optional[float] = 30.0
        self.keystore = KeyStore(seed=hash(self.id) & 0xFFFF)
        self._object_ids = IdGenerator(f"{self.id}.obj")
        self._glue_ids = IdGenerator(f"{self.id}.glue")
        self._lock = threading.RLock()

        # --- placement & transports ---
        if machine is not None:
            if self.sim is None:
                raise HpcError("a simulated machine needs a simulated ORB")
            self.machine = machine
            self.placement = Placement(machine=machine.name,
                                       lan=machine.lan.name,
                                       site=machine.site.name)
            net = SimTransport(self.sim, machine)
            net.loopback_model = TCP_LOOPBACK
            shm = SimShmTransport(self.sim, machine)
            self.transports = {net.name: net, shm.name: shm}
            self.clock = self.sim.clock
        else:
            self.machine = None
            self.placement = placement or Placement()
            self.transports = {"inproc": orb.inproc, "shm": orb.shm}
            if enable_tcp:
                self.transports["tcp"] = orb.tcp
            self.clock = WallClock()

        # --- serving ---
        self.server = MultiMethodServer(self.id)
        self._bound: Dict[str, dict] = {}
        for tname, transport in self.transports.items():
            self._bound[tname] = self.server.bind(transport)
        self.server.register(INVOKE_HANDLER, self._handle_invoke)
        self.server.register(GLUE_HANDLER, self._handle_glue)
        self.server.register(BATCH_HANDLER, self._handle_invoke_batch)
        self.server.register(GLUE_BATCH_HANDLER, self._handle_glue_batch)
        self.server.register(CONTROL_HANDLER, self._handle_control)

        self.servants: Dict[str, ServantRecord] = {}
        self.glue_stacks: Dict[str, ServerGlueStack] = {}
        self.forwards: Dict[str, ObjectReference] = {}
        self.proto_pool = pool or ProtocolPool(["glue", "shm", "nexus"])
        self.monitor = LoadMonitor(self.clock)
        #: Per-peer call state shared by every GP bound here: circuit
        #: breakers, retry budgets, overload pushback, latency windows
        #: and call coalescers (see :mod:`repro.core.peers`).
        self.peers = PeerTable(self.clock)
        #: Server-side admission control: the endpoint's one dispatch
        #: mechanism for threaded two-way requests.  The default policy
        #: is disabled (unbounded queue, fixed limit);
        #: :meth:`set_admission_policy` turns shedding and AIMD on and
        #: re-tunes them at runtime, Open Implementation style.
        self.admission = AdmissionController(AdmissionPolicy(),
                                             clock=self.clock)
        self.server.endpoint.admission = self.admission
        self.server.endpoint.clock = self.clock
        #: Context-wide hedging default for GPs bound here (off until an
        #: application or test opts in; GPs may override per binding).
        self.hedge_policy = HedgePolicy(enabled=False)
        #: Transparent-coalescing policy for GPs bound here (off until an
        #: application opts in; explicit ``gp.batch()`` scopes work
        #: regardless).
        self.batch_policy = BatchPolicy(enabled=False)
        # Per-context name→OR resolver cache (TTL + version-checked;
        # see docs/DIRECTORY.md).  GPs bound here feed MOVED forwarding
        # notices into it so every cached alias of a migrated object is
        # patched the moment *any* call observes the move.  Imported
        # lazily: repro.directory sits above core in the layering.
        from repro.directory.resolver import ResolverCache

        self.resolver = ResolverCache(self.clock)
        # Shared invocation executor (lazily created): one pool per
        # context instead of 4 threads per GP, so a process with
        # thousands of GPs does not leak thousands of idle threads.
        self._executor = None
        self._hedge_executor = None

    # ------------------------------------------------------------------
    # shared executors
    # ------------------------------------------------------------------

    @property
    def executor(self):
        """The context-wide pool ``invoke_async`` submissions run on."""
        from concurrent.futures import ThreadPoolExecutor

        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=8,
                    thread_name_prefix=f"{self.id}-invoke")
            return self._executor

    @property
    def hedge_executor(self):
        """A separate pool for hedged attempt legs.

        Kept apart from :attr:`executor` on purpose: hedged calls wait
        on their attempt futures, and waiting on the same pool that runs
        you deadlocks once the pool saturates.  Attempt legs are leaves
        (they never submit further work), so this pool cannot deadlock.
        """
        from concurrent.futures import ThreadPoolExecutor

        with self._lock:
            if self._hedge_executor is None:
                self._hedge_executor = ThreadPoolExecutor(
                    max_workers=8,
                    thread_name_prefix=f"{self.id}-hedge")
            return self._hedge_executor

    # ------------------------------------------------------------------
    # cost accounting
    # ------------------------------------------------------------------

    def charge_cost(self, kind: Optional[str], nbytes: int) -> None:
        """Charge virtual CPU seconds for byte-touching work (no-op
        outside simulation or for free transforms)."""
        if kind is None or self.sim is None or self.machine is None:
            return
        cost_fn = getattr(self.machine.cpu, f"{kind}_cost", None)
        if cost_fn is None:
            raise HpcError(f"unknown cost kind {kind!r}")
        self.sim.charge_cpu(self.machine, cost_fn(nbytes))

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def _address_entries(self) -> tuple[list, list]:
        """(shm addresses, network addresses) from the bound listeners."""
        shm_addrs, net_addrs = [], []
        for tname, address in self._bound.items():
            if tname in ("shm", "sim-shm"):
                shm_addrs.append(dict(address))
            else:
                net_addrs.append(dict(address))
        return shm_addrs, net_addrs

    def _base_proto_data(self, addresses: list) -> dict:
        data = self.placement.to_wire()
        data["addresses"] = addresses
        data["encoding"] = self.encoding
        return data

    def make_glue_entry(self, descriptors: List[dict],
                        applicability: Optional[str] = None
                        ) -> ProtocolEntry:
        """Register a server glue stack and return its OR entry.

        The entry's inner protocol is this context's ``nexus`` entry (the
        glue object "depends on a real protocol object to do the actual
        communication", §4.1)."""
        if not descriptors:
            raise CapabilityError("glue stack needs at least one capability")
        glue_id = self._glue_ids.next_id()
        stack = ServerGlueStack(glue_id, descriptors, self)
        with self._lock:
            self.glue_stacks[glue_id] = stack
        _shm, net = self._address_entries()
        inner = ProtocolEntry("nexus", self._base_proto_data(net))
        proto_data = self._base_proto_data(net)
        proto_data.update({
            "glue_id": glue_id,
            "capabilities": [dict(d) for d in descriptors],
            "inner": inner.to_wire(),
        })
        if applicability:
            proto_data["applicability"] = applicability
        return ProtocolEntry("glue", proto_data)

    def export(self, obj, *, view=None, object_id: Optional[str] = None,
               glue_stacks: Optional[List[List[dict]]] = None,
               acl: Optional[AccessControlList] = None,
               interface: Optional[InterfaceSpec] = None,
               include_shm: bool = True,
               include_plain: bool = True,
               migratable: bool = True) -> ObjectReference:
        """Export ``obj`` and build its object reference.

        Parameters
        ----------
        view:
            An :class:`InterfaceView` (or iterable of method names)
            restricting what this OR's holders may call.
        glue_stacks:
            Capability stacks; each becomes one glue entry, in order, at
            the front of the protocol table (the Figure 4-B layout).
        acl:
            Optional per-export ACL consulted for authenticated
            principals.
        include_shm / include_plain:
            Whether to append the shared-memory and plain ``nexus``
            entries after the glue entries.
        """
        spec = interface or interface_of(obj)
        if view is not None:
            if isinstance(view, InterfaceView):
                spec = view.apply(spec)
            else:
                spec = spec.subset(view)
        # Fail at export, not at first dispatch, if the servant does not
        # actually implement the exposed interface.
        from repro.idl.skeletons import validate_servant

        validate_servant(obj, spec)
        object_id = object_id or self._object_ids.next_id()
        glue_records = []
        entries: List[ProtocolEntry] = []
        for descriptors in (glue_stacks or []):
            entry = self.make_glue_entry(descriptors)
            glue_records.append((entry.proto_data["glue_id"], descriptors))
            entries.append(entry)
        shm_addrs, net_addrs = self._address_entries()
        if include_shm and shm_addrs:
            entries.append(ProtocolEntry("shm",
                                         self._base_proto_data(shm_addrs)))
        if include_plain:
            entries.append(ProtocolEntry("nexus",
                                         self._base_proto_data(net_addrs)))
        if not entries:
            raise HpcError("export would produce an empty protocol table")
        record = ServantRecord(object_id=object_id, instance=obj,
                               spec=spec, acl=acl, glue=glue_records,
                               migratable=migratable)
        with self._lock:
            if object_id in self.servants:
                raise HpcError(f"object id {object_id!r} already exported")
            self.servants[object_id] = record
            self.forwards.pop(object_id, None)
        return ObjectReference(object_id=object_id, context_id=self.id,
                               interface=spec, protocols=entries)

    def unexport(self, object_id: str) -> None:
        with self._lock:
            record = self.servants.pop(object_id, None)
            if record:
                for glue_id, _descriptors in record.glue:
                    self.glue_stacks.pop(glue_id, None)
            self.monitor.forget_object(object_id)

    def set_admission_policy(self, policy: AdmissionPolicy) -> None:
        """Swap the endpoint's admission policy at runtime.

        Queued work survives the swap (re-offered at the new capacity;
        overflow is shed with pushback).  ``AdmissionPolicy()`` has
        ``enabled=False``, so passing a default policy goes back to an
        unbounded queue and a limit pinned at ``max_limit``.
        """
        self.admission.set_policy(policy)

    def bind(self, oref: ObjectReference, **kwargs):
        """Create a :class:`~repro.core.gp.GlobalPointer` for ``oref``
        rooted in this context."""
        from repro.core.gp import GlobalPointer

        return GlobalPointer(oref, self, **kwargs)

    # ------------------------------------------------------------------
    # dispatch (server side of Figures 1 and 2)
    # ------------------------------------------------------------------

    def dispatch(self, payload: bytes, meta: RequestMeta) -> bytes:
        """Run one marshalled invocation; returns the reply envelope."""
        m = self.marshaller
        self.charge_cost("memcpy", len(payload))
        expires_at = ambient_deadline()
        if expires_at is not None and self.clock.now() > expires_at:
            # The caller's budget ran out before this member reached the
            # servant (e.g. earlier batch-mates consumed it): shed with
            # pushback instead of doing work nobody will wait for.
            return encode_reply_overload(m, 0.0, "deadline")
        try:
            inv = decode_invocation(m, payload)
        except HpcError as exc:
            return encode_reply_exception(m, exc)
        with self._lock:
            record = self.servants.get(inv.object_id)
            forward = self.forwards.get(inv.object_id)
        if record is None:
            if forward is not None:
                return encode_reply_moved(m, forward.to_bytes())
            return encode_reply_exception(m, ObjectNotFoundError(
                f"context {self.id!r} exports no object {inv.object_id!r}"))
        started = self.clock.now()
        try:
            if inv.method not in record.spec.methods:
                raise MethodNotExposedError(
                    f"method {inv.method!r} is outside the exported "
                    f"interface {record.spec.name!r}")
            # Enforce the declared wire contract before touching the
            # servant (arity and parameter types).
            from repro.idl.typecheck import check_args

            check_args(record.spec.methods[inv.method], inv.args)
            if record.acl is not None and not record.acl.allows(
                    meta.principal, inv.method):
                raise AuthenticationError(
                    f"principal {meta.principal} is not authorized for "
                    f"{inv.method!r}")
            method = getattr(record.instance, inv.method, None)
            if method is None:
                raise InterfaceError(
                    f"servant {type(record.instance).__name__} lacks "
                    f"declared method {inv.method!r}")
            result = method(*inv.args)
            reply = encode_reply_ok(m, result)
        except Exception as exc:  # noqa: BLE001 - marshalled to the peer
            reply = encode_reply_exception(m, exc)
        finally:
            self.monitor.record_request(inv.object_id,
                                        self.clock.now() - started)
        self.charge_cost("memcpy", len(reply))
        return reply

    # -- RSR handlers -----------------------------------------------------------

    def _handle_invoke(self, payload: bytes) -> bytes:
        return self.dispatch(bytes(payload), RequestMeta())

    def _handle_invoke_batch(self, payload: bytes) -> bytes:
        """Serve one BatchRequest: dispatch every sub-invocation and
        reply out of the batch with the matching sub ids.  A failing
        member produces an exception envelope in its slot; its
        batch-mates are unaffected."""
        request = BatchRequest.from_bytes(bytes(payload))
        meta = RequestMeta()
        items = tuple((sub_id, self.dispatch(bytes(sub), meta))
                      for sub_id, sub in request.items)
        return BatchReply(items).to_bytes()

    def _handle_glue_batch(self, payload: bytes) -> bytes:
        """Serve one capability-processed BatchRequest.

        The stack un-processes the whole record once, every
        sub-invocation dispatches, and the stack processes the combined
        BatchReply once — the server half of the per-call capability
        cost amortisation."""
        glue_id, cap_types, processed = decode_glue_envelope(payload)
        with self._lock:
            stack = self.glue_stacks.get(glue_id)
        meta = RequestMeta()
        if stack is None:
            bare = encode_reply_exception(
                self.marshaller,
                CapabilityError(f"unknown glue stack {glue_id!r}"))
            return encode_glue_reply(GLUE_REPLY_BARE, bare)
        try:
            stack.check_types(cap_types)
            inner = stack.unprocess_request(processed, meta)
            request = BatchRequest.from_bytes(inner)
        except Exception as exc:  # noqa: BLE001 - surfaced to the client
            bare = encode_reply_exception(self.marshaller, exc)
            return encode_glue_reply(GLUE_REPLY_BARE, bare)
        items = tuple((sub_id, self.dispatch(bytes(sub), meta))
                      for sub_id, sub in request.items)
        reply = BatchReply(items).to_bytes()
        try:
            out = stack.process_reply(reply, meta)
        except Exception as exc:  # noqa: BLE001
            bare = encode_reply_exception(self.marshaller, exc)
            return encode_glue_reply(GLUE_REPLY_BARE, bare)
        return encode_glue_reply(GLUE_REPLY_PROCESSED, out)

    def _handle_glue(self, payload: bytes) -> bytes:
        glue_id, cap_types, processed = decode_glue_envelope(payload)
        with self._lock:
            stack = self.glue_stacks.get(glue_id)
        meta = RequestMeta()
        if stack is None:
            bare = encode_reply_exception(
                self.marshaller,
                CapabilityError(f"unknown glue stack {glue_id!r}"))
            return encode_glue_reply(GLUE_REPLY_BARE, bare)
        try:
            stack.check_types(cap_types)
            inner = stack.unprocess_request(processed, meta)
        except Exception as exc:  # noqa: BLE001 - surfaced to the client
            bare = encode_reply_exception(self.marshaller, exc)
            return encode_glue_reply(GLUE_REPLY_BARE, bare)
        reply = self.dispatch(inner, meta)
        try:
            out = stack.process_reply(reply, meta)
        except Exception as exc:  # noqa: BLE001
            bare = encode_reply_exception(self.marshaller, exc)
            return encode_glue_reply(GLUE_REPLY_BARE, bare)
        return encode_glue_reply(GLUE_REPLY_PROCESSED, out)

    # -- control surface -----------------------------------------------------------

    def _handle_control(self, payload: bytes) -> bytes:
        """Small marshalled-dict control protocol.

        Ops:

        ``make_glue`` — register a capability stack proposed by a client
        (dynamic capability attachment, §4: capabilities "can also be
        changed dynamically"); returns the glue entry wire dict.
        ``ping`` — liveness/identity probe.
        """
        m = self.marshaller
        try:
            request = m.loads(payload)
            op = request.get("op")
            if op == "ping":
                reply = {"ok": True, "context_id": self.id,
                         "placement": self.placement.to_wire()}
            elif op == "make_glue":
                entry = self.make_glue_entry(
                    request["capabilities"],
                    applicability=request.get("applicability"))
                reply = {"ok": True, "entry": entry.to_wire()}
            else:
                reply = {"ok": False, "error": f"unknown op {op!r}"}
        except Exception as exc:  # noqa: BLE001
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        return m.dumps(reply)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def describe(self) -> dict:
        """Operational snapshot: placement, transports, exports, glue
        stacks, forwards, and load — the ops-facing face of Open
        Implementation."""
        with self._lock:
            servants = {
                oid: {
                    "interface": rec.spec.name,
                    "methods": list(rec.spec.method_names()),
                    "migratable": rec.migratable,
                    "glue_stacks": [gid for gid, _d in rec.glue],
                    "acl": rec.acl is not None,
                }
                for oid, rec in self.servants.items()
            }
            forwards = {oid: oref.context_id
                        for oid, oref in self.forwards.items()}
            stacks = {gid: [c.type_name for c in stack.capabilities]
                      for gid, stack in self.glue_stacks.items()}
        return {
            "context_id": self.id,
            "placement": self.placement.to_wire(),
            "simulated": self.sim is not None,
            "encoding": self.encoding,
            "transports": sorted(self.transports),
            "pool": self.proto_pool.ids(),
            "servants": servants,
            "forwards": forwards,
            "glue_stacks": stacks,
            **self.peers.snapshot(),
            "admission": self.admission.snapshot(),
            "load": {
                "total_requests": self.monitor.total_requests,
                "busy_fraction": self.monitor.load,
            },
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def stop(self) -> None:
        self.server.stop()
        with self._lock:
            executors = [self._executor, self._hedge_executor]
            self._executor = None
            self._hedge_executor = None
        for executor in executors:
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Context {self.id} machine={self.placement.machine!r} "
                f"objects={len(self.servants)}>")
