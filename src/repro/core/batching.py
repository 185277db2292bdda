"""Adaptive request batching on the invoke hot path.

Small-call workloads are dominated by per-message overhead: framing,
capability processing, kernel crossings, and (for request/reply
channels) a full round trip each.  This module aggregates concurrent
small invocations bound for the same ``(peer context, protocol)`` into
one multi-request wire record (:class:`~repro.serialization.marshal.
BatchRequest` / ``BatchReply``), so N calls pay one frame, one
capability pass, and one round trip — the message-aggregation half of
the pipelined-channel story (the demux half lives in
:class:`~repro.nexus.endpoint.PipelinedStartpoint`).

Two entry points:

* **transparent coalescing** — when the owning context's
  :class:`BatchPolicy` is enabled, every eligible ``invoke`` /
  ``invoke_async`` enqueues on the peer's :class:`CallCoalescer`
  instead of dialing out alone.  The first caller in becomes the
  *leader* and waits an adaptive window (a fraction of the peer's
  observed p50 latency, clamped); followers ride along, and a follower
  that fills the size or byte cap flushes immediately on its own
  thread.  Wall-clock contexts only — the simulated world is
  synchronous, so there is never a second concurrent call to coalesce
  with.
* **explicit scopes** — ``with gp.batch() as b: b.invoke(...)`` queues
  calls and flushes them as one batch on exit.  Works identically in
  real and simulated worlds (and is therefore what the deterministic
  simnet benchmarks and chaos tests use).

Failure semantics: a batch member is an ordinary call.  A member whose
reply envelope carries a remote exception gets exactly that exception;
a whole-batch transport failure falls back to per-member individual
invocation through the GP's normal retry machinery, so the idempotence
guard, circuit breakers, and shared retry budgets all keep their word.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.admission.deadline import ambient_deadline
from repro.core.request import (
    Invocation,
    decode_reply,
    encode_invocation,
)
from repro.core.resilience import sleep_on
from repro.exceptions import (
    HpcError,
    ObjectMovedError,
    OverloadError,
    TransportError,
)

__all__ = ["BatchPolicy", "CallCoalescer", "BatchScope", "flush_batch"]


@dataclass
class BatchPolicy:
    """Knobs for transparent call coalescing.

    ``window_for`` derives the leader's wait from the peer's observed
    latency: waiting a fraction of a round trip costs little (the batch
    would have queued behind the wire anyway) and is exactly the time
    in which concurrent callers arrive.
    """

    #: Master switch for *transparent* coalescing (explicit
    #: ``gp.batch()`` scopes work regardless).
    enabled: bool = False
    #: Flush when this many calls are pending.
    max_batch: int = 16
    #: Flush when pending encoded payloads reach this many bytes.
    max_bytes: int = 64 * 1024
    #: Calls with encoded payloads above this ride alone — a large
    #: argument blob gains nothing from sharing a frame.
    max_item_bytes: int = 8192
    #: Bounds on the adaptive window (seconds).
    min_window: float = 0.0002
    max_window: float = 0.020
    #: Fraction of the peer's p50 latency the leader waits.
    window_fraction: float = 0.5

    def window_for(self, latency) -> float:
        """The leader's wait for one flush, from the peer's latency
        history (a :class:`~repro.core.peers.LatencyView`;
        ``min_window`` until enough history exists)."""
        p50 = latency.quantile(0.5) if latency is not None else None
        if p50 is None:
            return self.min_window
        return min(max(self.window_fraction * p50, self.min_window),
                   self.max_window)


class _PendingCall:
    """One enqueued member: everything needed to send, settle, and —
    if the batch dies — fall back through the member's own GP."""

    __slots__ = ("gp", "oref", "entry", "client", "invocation", "payload",
                 "future")

    def __init__(self, gp, oref, entry, client, invocation: Invocation,
                 payload: bytes):
        self.gp = gp
        self.oref = oref
        self.entry = entry
        self.client = client
        self.invocation = invocation
        self.payload = payload
        self.future: Future = Future()


def _settle_member(context_id: str, proto_id: str,
                   item: _PendingCall, envelope: bytes,
                   duration: float) -> None:
    """Deliver one member's outcome exactly as the direct path would."""
    gp = item.gp
    method = item.invocation.method
    if item.invocation.oneway:
        # Fire-and-forget members discard their reply outcome entirely,
        # matching the direct path (which never reads a reply).
        gp.peers.record_success(context_id, proto_id)
        gp._emit("request", method=method, proto_id=proto_id,
                 outcome="ok", duration=duration)
        item.future.set_result(None)
        return
    try:
        value = decode_reply(item.client.marshaller, envelope)
    except ObjectMovedError:
        # This member's target moved: re-run it individually; the GP's
        # normal MOVED handling chases the forward.
        try:
            value = gp._invoke(method, item.invocation.args,
                               oneway=False, _no_batch=True)
        except Exception as exc:  # noqa: BLE001 - delivered via future
            item.future.set_exception(exc)
        else:
            item.future.set_result(value)
        return
    except Exception as exc:  # noqa: BLE001 - incl. RemoteException
        gp._emit("request", method=method, proto_id=proto_id,
                 outcome="error", error=exc, duration=duration)
        item.future.set_exception(exc)
        return
    gp.peers.record_success(context_id, proto_id, duration)
    gp._emit("request", method=method, proto_id=proto_id,
             outcome="ok", duration=duration)
    item.future.set_result(value)


def _settle_failed(context, context_id: str, proto_id: str,
                   batch: List[_PendingCall], exc: Exception) -> None:
    """Whole-batch transport failure: one breaker strike for the shared
    wire, then each member retries *individually* through its GP's
    normal recovery loop — a batch member is an ordinary call, so
    partial recovery, failover, and the idempotence guard all apply
    per member."""
    lead = batch[0]
    if isinstance(exc, OverloadError):
        # The server shed the whole batch atomically with one pushback
        # reply: the peer is alive and the channel healthy, so no
        # breaker strike and no eviction.  Note the hint and wait it
        # out *once* for the whole batch, then let members fall back
        # individually (each member's own recovery loop honours any
        # further pushback).
        lead.gp.peers.note_pushback(context_id, exc.retry_after)
        sleep_on(context.clock, exc.retry_after)
    else:
        lead.gp.peers.record_failure(context_id, proto_id)
        lead.gp._evict_client(lead.entry)
    # Only a transport error without the sent flag proves the batch
    # never left this host; anything else (a reply we could not decode,
    # a remote refusal) may have reached dispatch.
    dispatched = bool(getattr(exc, "request_sent", False)
                      or getattr(exc, "request_dispatched", False)
                      or not isinstance(exc, TransportError))
    for item in batch:
        gp = item.gp
        method = item.invocation.method
        gp._emit("batch_fallback", method=method, context_id=context_id,
                 proto_id=proto_id, error=exc, dispatched=dispatched)
        try:
            if not gp._may_retry(item.oref, method, dispatched):
                raise exc
            value = gp._invoke(method, item.invocation.args,
                               oneway=item.invocation.oneway,
                               _no_batch=True)
        except Exception as fallback_exc:  # noqa: BLE001
            gp._emit("request", method=method, proto_id=proto_id,
                     outcome="error", error=fallback_exc, duration=0.0)
            if not item.future.done():
                item.future.set_exception(fallback_exc)
        else:
            if not item.future.done():
                item.future.set_result(value)


def flush_batch(context, context_id: str, proto_id: str,
                batch: List[_PendingCall], reason: str) -> None:
    """Send one prepared batch over the lead member's client and settle
    every member's future (used by both the coalescer and explicit
    scopes).  Never raises: every outcome lands in a future."""
    if not batch:
        return
    lead = batch[0]
    clock = context.clock
    payloads = [item.payload for item in batch]
    nbytes = sum(len(p) for p in payloads)
    # The batch travels under its most urgent member's class and its
    # tightest member's remaining budget — the server accounts and
    # sheds the record as one unit, so the unit must honour every
    # member's contract.
    priority = min(item.invocation.priority for item in batch)
    member_deadlines = [item.invocation.deadline for item in batch
                        if item.invocation.deadline is not None]
    started = clock.now()
    remaining = None if not member_deadlines \
        else min(member_deadlines) - started
    try:
        envelopes = lead.client.invoke_batch(payloads, priority=priority,
                                             deadline=remaining)
        duration = clock.now() - started
    except Exception as exc:  # noqa: BLE001 - settled per member
        _settle_failed(context, context_id, proto_id, batch, exc)
        return
    lead.gp._emit("batch_flush", context_id=context_id, proto_id=proto_id,
                  size=len(batch), nbytes=nbytes, reason=reason,
                  duration=duration)
    for item, envelope in zip(batch, envelopes):
        try:
            _settle_member(context_id, proto_id, item, envelope, duration)
        except Exception as exc:  # noqa: BLE001 - backstop
            if not item.future.done():
                item.future.set_exception(exc)


class CallCoalescer:
    """Per-``(peer context, proto)`` aggregation point.

    Leader/follower protocol: the thread whose enqueue takes the queue
    from empty to one becomes the *leader*; it waits the adaptive
    window on the condition, then flushes whatever accumulated.  A
    follower that fills either cap takes the whole batch and flushes
    immediately on its own thread (notifying the leader, whose item is
    then gone when it wakes).  Every pending item therefore always has
    exactly one thread responsible for flushing it — there is no
    background timer to leak or to miss shutdown.
    """

    def __init__(self, context, context_id: str, proto_id: str):
        self.context = context
        self.context_id = context_id
        self.proto_id = proto_id
        self._cond = threading.Condition()
        self._pending: List[_PendingCall] = []
        self._bytes = 0

    @property
    def pending(self) -> int:
        """Currently enqueued member count (observability/tests)."""
        with self._cond:
            return len(self._pending)

    def _take_locked(self) -> List[_PendingCall]:
        batch, self._pending = self._pending, []
        self._bytes = 0
        self._cond.notify_all()
        return batch

    def submit(self, gp, oref, entry, client, invocation: Invocation,
               payload: bytes, eager: bool = False) -> Future:
        """Enqueue one call; returns its future.

        ``eager`` flushes immediately after enqueueing (oneway calls
        must not linger in a window the caller never waits out — a
        process exiting right after ``invoke_oneway`` would silently
        drop the batch).
        """
        policy = self.context.batch_policy
        item = _PendingCall(gp, oref, entry, client, invocation, payload)
        batch: Optional[List[_PendingCall]] = None
        reason = ""
        with self._cond:
            self._pending.append(item)
            self._bytes += len(payload)
            if eager:
                batch, reason = self._take_locked(), "eager"
            elif (len(self._pending) >= policy.max_batch
                    or self._bytes >= policy.max_bytes):
                batch, reason = self._take_locked(), "full"
            elif len(self._pending) == 1:
                # Leader: wait the adaptive window for company.
                window = policy.window_for(
                    self.context.peers.latency(self.context_id,
                                               self.proto_id))
                self._cond.wait(timeout=window)
                if any(p is item for p in self._pending):
                    batch, reason = self._take_locked(), "window"
                # else: a cap-filling follower already took this batch
                # (item included) and is flushing it right now.
        if batch:
            flush_batch(self.context, self.context_id, self.proto_id,
                        batch, reason)
        return item.future

    def flush(self) -> int:
        """Flush whatever is pending right now; returns the member
        count.  Shutdown paths call this so no enqueued call is ever
        abandoned in an un-expired window."""
        with self._cond:
            batch = self._take_locked()
        if batch:
            flush_batch(self.context, self.context_id, self.proto_id,
                        batch, "flush")
        return len(batch)


class BatchScope:
    """Explicit batching: queue invocations, flush as one wire batch.

    ::

        with gp.batch() as b:
            futures = [b.invoke("process", i) for i in range(100)]
        results = [f.result() for f in futures]

    Unlike transparent coalescing this works in the simulated world too
    (the queue is built by one caller, so no concurrency is needed),
    which is what makes seeded batching benchmarks and chaos runs
    deterministic.
    """

    def __init__(self, gp, policy: Optional[BatchPolicy] = None):
        self.gp = gp
        self.policy = policy
        self._queued: List[Tuple[str, tuple, bool, Future]] = []
        self._closed = False

    # -- queueing ------------------------------------------------------

    def _enqueue(self, method: str, args: tuple, oneway: bool) -> Future:
        if self._closed:
            raise HpcError("batch scope already flushed")
        future: Future = Future()
        self._queued.append((method, tuple(args), oneway, future))
        return future

    def invoke(self, method: str, *args) -> Future:
        """Queue one two-way invocation; resolves at flush."""
        return self._enqueue(method, args, oneway=False)

    def invoke_oneway(self, method: str, *args) -> Future:
        """Queue one fire-and-forget invocation (future resolves to
        None at flush; remote errors are dropped, as ever)."""
        return self._enqueue(method, args, oneway=True)

    @property
    def pending(self) -> int:
        return len(self._queued)

    # -- flushing ------------------------------------------------------

    def flush(self) -> int:
        """Send everything queued so far; returns the call count."""
        queued, self._queued = self._queued, []
        if not queued:
            return 0
        gp = self.gp
        context = gp.context
        policy = self.policy or context.batch_policy
        try:
            oref = gp._snapshot()
            entry = gp._select(oref.context_id, oref.protocols)
            client = gp._client_for(entry)
        except Exception as exc:  # noqa: BLE001 - delivered via futures
            for _method, _args, _oneway, future in queued:
                future.set_exception(exc)
            return len(queued)
        # Scope members carry the same admission stamps a direct call
        # through this GP would: its class, and the tighter of the
        # retry policy's budget and any ambient (nested-call) deadline.
        clock = context.clock
        deadline = None if gp.retry_policy.deadline is None \
            else clock.now() + gp.retry_policy.deadline
        inherited = ambient_deadline()
        if inherited is not None:
            deadline = inherited if deadline is None \
                else min(deadline, inherited)
        items: List[_PendingCall] = []
        for method, args, oneway, future in queued:
            if method not in oref.interface.methods:
                from repro.exceptions import InterfaceError

                future.set_exception(InterfaceError(
                    f"interface {oref.interface.name!r} does not expose "
                    f"{method!r}"))
                continue
            invocation = Invocation(object_id=oref.object_id,
                                    method=method, args=args,
                                    oneway=oneway, priority=gp.priority,
                                    deadline=deadline)
            item = _PendingCall(gp, oref, entry, client, invocation,
                                encode_invocation(client.marshaller,
                                                  invocation))
            item.future = future
            items.append(item)
        # Respect the policy's caps so one scope cannot build a frame
        # the peer would refuse.
        chunk: List[_PendingCall] = []
        chunk_bytes = 0
        for item in items:
            if chunk and (len(chunk) >= policy.max_batch
                          or chunk_bytes + len(item.payload)
                          > policy.max_bytes):
                flush_batch(context, oref.context_id, entry.proto_id,
                            chunk, "scope")
                chunk, chunk_bytes = [], 0
            chunk.append(item)
            chunk_bytes += len(item.payload)
        if chunk:
            flush_batch(context, oref.context_id, entry.proto_id,
                        chunk, "scope")
        return len(queued)

    def abort(self, cause: Optional[Exception] = None) -> None:
        """Fail everything still queued without sending it."""
        queued, self._queued = self._queued, []
        error = cause or HpcError("batch scope aborted")
        for _method, _args, _oneway, future in queued:
            future.set_exception(error)

    # -- context manager -----------------------------------------------

    def __enter__(self) -> "BatchScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.flush()
        else:
            self.abort(HpcError(
                f"batch scope aborted by {exc_type.__name__}: {exc}"))
        self._closed = True
