"""Span recording around the ORB's layer functions, from outside ``src/``.

:class:`Tracer` wraps the functions one ``gp.invoke`` crosses (stub to
servant and back) by replacing them on their classes and modules, and
restores them on :meth:`Tracer.uninstall`.  Nothing under ``src/`` knows
it is being traced.

A span is ``(layer, start, end, nbytes, flags)`` on ``time.perf_counter``
(CLOCK_MONOTONIC on Linux, so spans from the separate server process of
``tcp-pipelined`` share the client's time base).

Spans are grouped per invocation in two ways:

* on a calling thread, :meth:`Tracer.begin` opens a :class:`Call` and every
  span recorded on that thread until :meth:`Tracer.end` goes into it;
* on every other thread (endpoint readers, dispatch and admission
  workers, the pipelined demux) spans are filed under the RSR request id
  in :attr:`Tracer.sink`.  The id is learned where it first appears on
  that thread: ``RsrMessage.decode`` on reader threads, the popped
  admission item on admission workers, and -- on pool threads, which only
  see the handler payload -- the identity of the request payload the
  reader decoded, matched at ``Context.dispatch`` or
  ``decode_glue_envelope``.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

import numpy as np
from repro.admission.controller import AdmissionController
from repro.core import glue as glue_mod
from repro.core import request as request_mod
from repro.core.capabilities import CallQuotaCapability, EncryptionCapability
from repro.core.context import Context
from repro.core.glue import GlueClient, ServerGlueStack
from repro.core.gp import GlobalPointer
from repro.core.protocol import ProtocolClient
from repro.nexus.endpoint import PipelinedStartpoint, Startpoint
from repro.nexus.rsr import RsrMessage
from repro.serialization.marshal import Marshaller
from repro.transport.inproc import InProcChannel
from repro.transport.shm import ShmChannel
from repro.transport.tcp import TcpChannel

__all__ = ["Call", "Tracer", "SEND", "RECV", "REQ"]

_now = time.perf_counter

#: Span flags.
SEND = 1    # a transport send
RECV = 2    # a transport recv
REQ = 4     # belongs to a request message (not its reply)

CHANNELS = {"inproc": InProcChannel, "shm": ShmChannel, "tcp": TcpChannel}
CAPABILITIES = (CallQuotaCapability, EncryptionCapability)


class Call:
    """One traced invocation as its calling thread saw it."""

    __slots__ = ("t0", "t1", "label", "nbytes", "factor", "rid", "spans",
                 "other")

    def __init__(self):
        self.t0 = self.t1 = 0.0
        self.label = ""
        self.nbytes = 0
        self.factor = 1.0   # host-speed factor of the slice it ran in
        self.rid = None
        self.spans = []     # calling-thread spans
        self.other = []     # other-thread spans with this call's rid


class Tracer:
    """Installs the layer wrappers and collects their spans."""

    def __init__(self):
        self._local = threading.local()
        #: rid -> spans recorded off the calling thread.
        self.sink: dict = {}
        self._payload_rid: dict = {}
        self._queued_at: dict = {}
        #: Event counters (select calls, invokes, capability bytes, ...).
        self.counts = defaultdict(int)
        self.inflight_max = 0
        self._saved: list = []

    # -- calls ----------------------------------------------------------------

    def begin(self) -> Call:
        call = Call()
        self._local.call = call
        return call

    def end(self) -> None:
        self._local.call = None

    def settle(self, calls) -> None:
        """Move the off-thread spans of finished ``calls`` into them and
        drop everything else the sink holds (calls not kept, oneways,
        control traffic)."""
        sink = self.sink
        for call in calls:
            if call.rid is not None:
                call.other.extend(sink.pop(call.rid, ()))
        sink.clear()
        self._payload_rid.clear()
        self._queued_at.clear()

    # -- recording ------------------------------------------------------------

    def _emit(self, span) -> None:
        local = self._local
        call = getattr(local, "call", None)
        if call is not None:
            call.spans.append(span)
            return
        rid = getattr(local, "rid", None)
        if rid is not None:
            self.sink.setdefault(rid, []).append(span)

    def _join_payload(self, payload) -> None:
        """On a thread with no open call, adopt the rid of the request
        whose payload this is (pool threads learn their request here)."""
        local = self._local
        if getattr(local, "call", None) is None:
            rid = self._payload_rid.pop(id(payload), None)
            if rid is not None:
                local.rid = rid

    # -- wrapper factories ----------------------------------------------------

    def _span(self, fn, layer, flags=0, size_in=False, size_out=False):
        emit = self._emit

        def wrapper(*args, **kwargs):
            start = _now()
            out = fn(*args, **kwargs)
            end = _now()
            nbytes = len(out) if size_out else (
                len(args[1]) if size_in else 0)
            emit((layer, start, end, nbytes, flags))
            return out

        return wrapper

    def _recv(self, fn, layer):
        local = self._local

        def recv(chan, *args, **kwargs):
            start = _now()
            out = fn(chan, *args, **kwargs)
            span = (layer, start, _now(), len(out), RECV)
            call = getattr(local, "call", None)
            if call is not None:
                call.spans.append(span)
            else:
                # Filed by the RsrMessage.decode that follows on this
                # thread, once the request id is known.
                local.pending = span
            return out

        return recv

    def _capability(self, fn, layer):
        emit, counts = self._emit, self.counts

        def transform(cap, data, meta):
            start = _now()
            out = fn(cap, data, meta)
            end = _now()
            counts["cap_bytes_in"] += len(data)
            counts["cap_bytes_out"] += len(out)
            emit((layer, start, end, len(data), 0))
            return out

        return transform

    # -- install / uninstall --------------------------------------------------

    def _patch(self, owner, name, value) -> None:
        had = name in vars(owner)
        self._saved.append((owner, name, had, vars(owner).get(name)))
        setattr(owner, name, value)

    def _patch_function(self, module, name, wrap) -> None:
        """Replace a module function everywhere ``repro`` imported it by
        name, so callers that did ``from m import f`` see the wrapper."""
        original = getattr(module, name)
        wrapper = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) \
                    and getattr(mod, name, None) is original:
                self._patch(mod, name, wrapper)

    def install(self, servant_classes=()) -> None:
        """Wrap every traced layer; ``servant_classes`` get their
        ``process``/``status`` timed as the servant layer."""
        if self._saved:
            return
        local, counts = self._local, self.counts
        tracer = self

        # core.gp
        invoke = GlobalPointer._invoke
        span_gp = self._span(invoke, "core.gp")

        def gp_invoke(gp, method, args, oneway=False, _no_batch=False):
            counts["gp_invokes"] += 1
            return span_gp(gp, method, args, oneway, _no_batch)

        self._patch(GlobalPointer, "_invoke", gp_invoke)
        select = GlobalPointer._select

        def gp_select(gp, *args, **kwargs):
            counts["select_calls"] += 1
            return select(gp, *args, **kwargs)

        self._patch(GlobalPointer, "_select", gp_select)

        # protocol clients
        self._patch(ProtocolClient, "invoke",
                    self._span(ProtocolClient.invoke, "core.protocol"))
        self._patch(ProtocolClient, "call_raw",
                    self._span(ProtocolClient.call_raw, "core.protocol"))
        self._patch(GlueClient, "invoke",
                    self._span(GlueClient.invoke, "core.glue"))

        # request codec
        for name in ("encode_invocation", "encode_reply_ok",
                     "encode_reply_exception"):
            self._patch_function(
                request_mod, name,
                lambda fn: self._span(fn, "core.request.encode",
                                      size_out=True))
        for name in ("decode_invocation", "decode_reply"):
            self._patch_function(
                request_mod, name,
                lambda fn: self._span(fn, "core.request.decode",
                                      size_in=True))

        # serialization
        for name in ("dumps", "dumps_many"):
            self._patch(Marshaller, name, self._span(
                getattr(Marshaller, name), "serialization.dumps",
                size_out=True))
        for name in ("loads", "loads_many"):
            self._patch(Marshaller, name, self._span(
                getattr(Marshaller, name), "serialization.loads",
                size_in=True))

        # capabilities
        for cls in CAPABILITIES:
            layer = f"core.capabilities.{cls.type_name}"
            for name in ("process", "unprocess", "process_reply",
                         "unprocess_reply"):
                self._patch(cls, name,
                            self._capability(getattr(cls, name), layer))

        # server glue stack
        glue_decode = glue_mod.decode_glue_envelope
        emit = self._emit

        def decode_glue_envelope(data):
            tracer._join_payload(data)
            start = _now()
            out = glue_decode(data)
            emit(("core.glue.server", start, _now(), len(data), 0))
            return out

        self._patch_function(glue_mod, "decode_glue_envelope",
                             lambda fn: decode_glue_envelope)
        self._patch_function(
            glue_mod, "encode_glue_reply",
            lambda fn: self._span(fn, "core.glue.server", size_out=True))
        for name in ("unprocess_request", "process_reply"):
            self._patch(ServerGlueStack, name, self._span(
                getattr(ServerGlueStack, name), "core.glue.server"))

        # nexus.rsr
        self._patch(RsrMessage, "encode", self._span(
            RsrMessage.encode, "nexus.rsr.encode", size_out=True))
        rsr_decode = RsrMessage.decode.__func__
        payload_rid, sink = self._payload_rid, self.sink

        def decode(cls, data):
            start = _now()
            msg = rsr_decode(cls, data)
            end = _now()
            is_request = msg.is_request()
            span = ("nexus.rsr.decode", start, end, len(data),
                    REQ if is_request else 0)
            call = getattr(local, "call", None)
            if call is not None:
                call.spans.append(span)
                return msg
            rid = msg.request_id
            local.rid = rid
            spans = sink.setdefault(rid, [])
            pending = getattr(local, "pending", None)
            if pending is not None:
                local.pending = None
                spans.append(pending if not is_request else
                             pending[:4] + (RECV | REQ,))
            spans.append(span)
            if is_request:
                payload_rid[id(msg.payload)] = rid
            return msg

        self._patch(RsrMessage, "decode", classmethod(decode))
        rsr_request = RsrMessage.request.__func__

        def request(cls, request_id, *args, **kwargs):
            call = getattr(local, "call", None)
            if call is not None:
                call.rid = request_id
            return rsr_request(cls, request_id, *args, **kwargs)

        self._patch(RsrMessage, "request", classmethod(request))

        # nexus.endpoint (client half)
        lockstep = self._span(Startpoint.call, "nexus.endpoint.client")

        def startpoint_call(sp, *args, **kwargs):
            tracer.inflight_max = max(tracer.inflight_max, 1)
            return lockstep(sp, *args, **kwargs)

        self._patch(Startpoint, "call", startpoint_call)
        pipelined = self._span(PipelinedStartpoint.call,
                               "nexus.endpoint.client")

        def pipelined_call(sp, handler, payload, oneway=False, **kwargs):
            if not oneway:
                tracer.inflight_max = max(tracer.inflight_max,
                                          sp.inflight + 1)
            return pipelined(sp, handler, payload, oneway, **kwargs)

        self._patch(PipelinedStartpoint, "call", pipelined_call)

        # transport
        for kind, cls in CHANNELS.items():
            self._patch(cls, "send", self._span(
                cls.send, f"transport.{kind}.send", SEND, size_in=True))
            self._patch(cls, "recv", self._recv(cls.recv,
                                                f"transport.{kind}.recv"))

        # admission
        submit = AdmissionController.submit
        queued_at = self._queued_at

        def admission_submit(ctl, work, *args, **kwargs):
            queued_at[work[0].request_id] = _now()
            return submit(ctl, work, *args, **kwargs)

        self._patch(AdmissionController, "submit", admission_submit)
        pop = AdmissionController.pop

        def admission_pop(ctl, timeout=None):
            item = pop(ctl, timeout)
            if item is not None:
                rid = item.work[0].request_id
                local.rid = rid
                queued = queued_at.pop(rid, None)
                if queued is not None:
                    sink.setdefault(rid, []).append(
                        ("admission.queue_wait", queued, _now(), 0, 0))
            return item

        self._patch(AdmissionController, "pop", admission_pop)

        # core.context dispatch and the servant
        dispatch = self._span(Context.dispatch, "core.context.dispatch")

        def context_dispatch(ctx, payload, meta):
            tracer._join_payload(payload)
            return dispatch(ctx, payload, meta)

        self._patch(Context, "dispatch", context_dispatch)
        for cls in servant_classes:
            for name in ("process", "status"):
                self._patch(cls, name,
                            self._span(getattr(cls, name), "servant"))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, had, value = self._saved.pop()
            if had:
                setattr(owner, name, value)
            else:
                delattr(owner, name)

    # -- shipping spans between processes -------------------------------------

    def export_spans(self) -> dict:
        """The sink as flat columns, for the server process to return
        over the ORB (numpy arrays marshal natively)."""
        layers: dict = {}
        rids, codes, starts, ends, sizes, flags = [], [], [], [], [], []
        for rid, spans in list(self.sink.items()):
            for layer, start, end, nbytes, flag in spans:
                rids.append(rid)
                codes.append(layers.setdefault(layer, len(layers)))
                starts.append(start)
                ends.append(end)
                sizes.append(nbytes)
                flags.append(flag)
        return {"layers": list(layers),
                "rid": np.asarray(rids, dtype=np.int64),
                "code": np.asarray(codes, dtype=np.int32),
                "start": np.asarray(starts, dtype=np.float64),
                "end": np.asarray(ends, dtype=np.float64),
                "nbytes": np.asarray(sizes, dtype=np.int64),
                "flags": np.asarray(flags, dtype=np.int32)}


def import_spans(columns: dict) -> dict:
    """Inverse of :meth:`Tracer.export_spans`: rid -> [span]."""
    layers = columns["layers"]
    out: dict = {}
    for rid, code, start, end, nbytes, flag in zip(
            columns["rid"].tolist(), columns["code"].tolist(),
            columns["start"].tolist(), columns["end"].tolist(),
            columns["nbytes"].tolist(), columns["flags"].tolist()):
        out.setdefault(rid, []).append(
            (layers[code], start, end, nbytes, flag))
    return out
