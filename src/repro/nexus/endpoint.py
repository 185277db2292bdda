"""Endpoints (servers) and startpoints (clients) for RSR traffic.

An :class:`Endpoint` owns a table of named handlers
(``name -> callable(payload: bytes) -> bytes``).  It can serve:

* **threaded** — ``serve_listener`` starts a daemon accept loop; each
  accepted channel gets a daemon service loop.  Used for the real
  transports (inproc/shm/tcp).  Every two-way request is offered to the
  endpoint's :class:`~repro.admission.AdmissionController` and runs on
  one of its ``max_limit`` dispatch workers; oneways run inline on the
  channel's service thread.
* **inline** — ``serve_sim_listener`` installs callbacks on a simulated
  listener so requests dispatch synchronously inside the sender's
  ``send`` call, keeping virtual time single-threaded.

A :class:`Startpoint` wraps one connected channel and provides
synchronous ``call``; each call writes one request and reads messages
until its own reply arrives (replies can only interleave when the
application multiplexes one startpoint across threads, which the lock
serializes anyway).

A :class:`PipelinedStartpoint` lifts that lock-step restriction: a
dedicated demux thread routes replies to waiters by request id
(correlation), so any number of callers may have requests outstanding
on *one* connection at once — the channel is pipelined instead of
request/reply ping-pong.  Wall-clock TCP channels always use it; the
synchronous simulated world keeps the plain startpoint (one virtual
event at a time makes pipelining meaningless there).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional

from repro.admission.controller import AdmissionController
from repro.admission.deadline import deadline_scope
from repro.admission.policy import BEST_EFFORT
from repro.exceptions import (
    ChannelClosedError,
    HpcError,
    OverloadError,
    RemoteException,
    RemoteInvocationError,
    TransportError,
)
from repro.nexus.rsr import RsrMessage
from repro.serialization.marshal import (
    decode_overload_info,
    dumps,
    encode_overload_info,
    loads,
)
from repro.transport.base import Channel, Listener
from repro.util.ids import IdGenerator
from repro.util.timing import WallClock

__all__ = ["Endpoint", "Startpoint", "PipelinedStartpoint"]

Handler = Callable[[bytes], bytes]

_WALL = WallClock()

#: Sentinel: derive the dispatch deadline from the message itself (inline
#: dispatch; admitted work passes the expiry computed at *arrival*
#: instead, so queueing time is not silently refunded to the budget).
_DERIVE = object()


def _raise_overload(reply: RsrMessage) -> None:
    """Raise the OverloadError carried by a pushback reply."""
    info = decode_overload_info(reply.payload)
    raise OverloadError(
        f"server shed request ({info['reason']}, queue depth "
        f"{info['depth']}); retry after {info['retry_after']:.3f}s",
        retry_after=info["retry_after"], reason=info["reason"])


class _Owed:
    """Two-way requests read off one channel and not yet answered or
    shed; the channel's serve loop closes it only once this is zero."""

    __slots__ = ("_count", "_lock", "_idle")

    def __init__(self):
        self._count = 0
        self._lock = threading.Lock()
        self._idle: Optional[threading.Event] = None  # set by wait()

    def add(self) -> None:
        with self._lock:
            self._count += 1

    def settle(self) -> None:
        with self._lock:
            self._count -= 1
            if self._count or self._idle is None:
                return
        self._idle.set()

    def wait(self) -> None:
        with self._lock:
            if not self._count:
                return
            self._idle = threading.Event()
        self._idle.wait()


class Endpoint:
    """Named-handler dispatch target."""

    def __init__(self, name: str = ""):
        self.name = name or "endpoint"
        self._handlers: Dict[str, Handler] = {}
        self._threads: list[threading.Thread] = []
        self._listeners: list[Listener] = []
        self._channels: list[Channel] = []
        self._stopping = False
        self._stopped = False
        self._stop_mutex = threading.Lock()
        self._ready = threading.Event()
        self._lock = threading.Lock()
        #: The one dispatch mechanism for threaded two-way requests; the
        #: owning context swaps in its own controller.
        self.admission = AdmissionController()
        #: The owning context's TimeSource; wall clock until wired.
        self.clock = None
        self._workers: list[threading.Thread] = []

    def _now(self) -> float:
        return (self.clock or _WALL).now()

    # -- handler table -------------------------------------------------------

    def register(self, handler_name: str, fn: Handler) -> None:
        if not handler_name:
            raise ValueError("handler name must be non-empty")
        with self._lock:
            self._handlers[handler_name] = fn

    def unregister(self, handler_name: str) -> None:
        with self._lock:
            self._handlers.pop(handler_name, None)

    def handlers(self) -> list[str]:
        with self._lock:
            return sorted(self._handlers)

    # -- dispatch ------------------------------------------------------------

    def handle_message(self, data: bytes, channel: Channel) -> None:
        """Decode one inbound message and act on it (inline)."""
        if self._stopping:
            # A stopped endpoint is a dead process to its callers:
            # sever the channel instead of serving, so a simulated
            # crash (inline dispatch) refuses exactly like a real
            # transport whose serve loops have exited.
            channel.close()
            return
        self._run_request(RsrMessage.decode(data), channel)

    def _run_request(self, message: RsrMessage, channel: Channel,
                     expires_at=_DERIVE) -> None:
        if not message.is_request():
            # A stray reply at an endpoint: drop (matches Nexus, which
            # treats unsolicited replies as protocol noise).
            return
        if expires_at is _DERIVE:
            expires_at = None if message.deadline is None \
                else self._now() + message.deadline
        if expires_at is not None and self._now() > expires_at:
            # The caller's budget is gone; a reply could only be late.
            if not message.is_oneway():
                self._send_reply(channel, RsrMessage.overload(
                    message.request_id,
                    encode_overload_info(0.0, "deadline")))
            return
        try:
            with self._lock:
                handler = self._handlers.get(message.handler)
            if handler is None:
                raise RemoteInvocationError(
                    f"endpoint {self.name!r} has no handler "
                    f"{message.handler!r}")
            with deadline_scope(expires_at):
                result = handler(message.payload)
            if result is None:
                result = b""
        except Exception as exc:  # noqa: BLE001 - marshalled to the peer
            if not message.is_oneway():
                err = dumps((type(exc).__name__, str(exc)))
                self._send_reply(channel,
                                 RsrMessage.error(message.request_id, err))
            return
        if not message.is_oneway():
            self._send_reply(channel,
                             RsrMessage.reply(message.request_id, result))

    @staticmethod
    def _send_reply(channel: Channel, reply: RsrMessage) -> None:
        """Send a reply, annotating transport failures with the fact the
        request already ran — the client-side retry layer must not treat
        a lost *reply* as an undispatched request."""
        try:
            channel.send(reply.encode())
        except HpcError as exc:
            exc.request_dispatched = True
            raise

    # -- threaded service (real transports) -----------------------------------

    def _offer(self, message: RsrMessage, channel: Channel,
               owed: _Owed) -> None:
        """Offer one two-way request to the admission controller; a
        shed answers the peer with an RSR OVERLOAD pushback reply."""
        admission = self.admission
        if len(self._workers) < admission.policy.max_limit:
            self._grow_workers(admission.policy.max_limit)

        def reject(retry_after: float, reason: str) -> None:
            payload = encode_overload_info(retry_after, reason,
                                           admission.queue.depth)
            try:
                self._send_reply(channel, RsrMessage.overload(
                    message.request_id, payload))
            except HpcError:
                pass  # peer already gone: nothing to push back to
            finally:
                owed.settle()

        owed.add()
        admission.submit(
            (message, channel, owed),
            # An unknown class from the wire is served as the least
            # urgent one rather than refused.
            priority=min(message.priority, BEST_EFFORT),
            deadline_remaining=message.deadline,
            cost=admission.classify(message.handler, message.payload),
            reject=reject)

    def _grow_workers(self, count: int) -> None:
        with self._lock:
            if self._stopping:
                return
            while len(self._workers) < count:
                worker = threading.Thread(
                    target=self._dispatch_worker,
                    name=f"{self.name}-admit", daemon=True)
                self._workers.append(worker)
                self._threads.append(worker)
                worker.start()

    def _dispatch_worker(self) -> None:
        """Draw admitted work while the limiter grants a slot; service
        latency (queueing excluded) feeds the adaptive limit back."""
        while not self._stopping:
            admission = self.admission
            item = admission.pop(timeout=0.5)
            if item is None:
                continue
            message, channel, owed = item.work
            started = self._now()
            try:
                self._run_request(message, channel,
                                  expires_at=item.expires_at)
            except HpcError:
                # The peer hung up between request and reply: orderly,
                # not an error (its serve loop notices the dead channel).
                pass
            finally:
                owed.settle()
                admission.finish(item, self._now() - started)

    def serve_channel(self, channel: Channel) -> None:
        """Blocking per-channel service loop (run in a thread).

        Two-way requests go through the admission controller and run on
        its workers, so a pipelined client really does get multiple
        requests *executing* concurrently on one connection; replies
        carry correlation ids, so completion order is free to differ
        from arrival order.  Oneway requests stay inline: a client
        thread never waits on them, so arrival-order execution is the
        only ordering anyone can observe — and it is preserved.
        """
        with self._lock:
            self._channels.append(channel)
        owed = _Owed()
        try:
            while not self._stopping:
                try:
                    data = channel.recv(timeout=0.5)
                except ChannelClosedError:
                    break
                except HpcError:
                    continue  # timeout: poll the stop flag
                try:
                    message = RsrMessage.decode(data)
                except HpcError:
                    continue  # undecodable: protocol noise, skip
                if message.is_request() and not message.is_oneway():
                    self._offer(message, channel, owed)
                else:
                    self._run_request(message, channel)
        finally:
            # Every two-way request read off this channel is answered or
            # shed before the channel closes: a client that half-closed
            # (eviction) may still be waiting for one of those replies.
            owed.wait()
            channel.close()

    def serve_listener(self, listener: Listener) -> None:
        """Start the daemon accept loop for a real-transport listener."""
        with self._lock:
            self._listeners.append(listener)

        def accept_loop():
            # Readiness means "the accept loop is live": the listener's
            # socket already has a bound address, but only now is someone
            # draining its backlog.  A worker process signals ready to
            # its parent off this event.
            self._ready.set()
            while not self._stopping:
                try:
                    channel = listener.accept(timeout=0.5)
                except ChannelClosedError:
                    break
                except HpcError:
                    continue
                worker = threading.Thread(
                    target=self.serve_channel, args=(channel,),
                    name=f"{self.name}-serve", daemon=True)
                worker.start()
                with self._lock:
                    self._threads.append(worker)

        acceptor = threading.Thread(target=accept_loop,
                                    name=f"{self.name}-accept", daemon=True)
        acceptor.start()
        with self._lock:
            self._threads.append(acceptor)

    # -- inline service (simulated transport) ---------------------------------

    def serve_sim_listener(self, listener) -> None:
        """Install inline dispatch on a simulated listener."""
        with self._lock:
            self._listeners.append(listener)

        def on_connect(channel):
            channel.on_message = self.handle_message

        listener.on_connect = on_connect
        # Adopt any connections that raced in before we were installed.
        while listener.pending:
            on_connect(listener.pending.popleft())
        self._ready.set()  # inline dispatch serves as soon as installed

    # -- lifecycle -------------------------------------------------------------

    def wait_ready(self, timeout: Optional[float] = None) -> bool:
        """Block until a serve loop is live (accept loop running, or
        inline sim dispatch installed).  Returns ``False`` on timeout.

        A parent that spawned this endpoint's process must not hand its
        address to clients before this — a bound-but-unserved listener
        accepts connections into the kernel backlog and then strands
        them, which reads as a gray failure rather than a clean refusal.
        """
        return self._ready.wait(timeout)

    @property
    def stopping(self) -> bool:
        return self._stopping

    def request_stop(self) -> None:
        """Flag the endpoint to stop without doing any teardown.

        This is the *only* stop entry safe inside a signal handler: it
        takes no locks and joins nothing — it flips one flag, which
        every serve/accept/admission loop polls at least twice a second.
        The handler (or the code it unwinds into) then calls
        :meth:`stop` from normal context to reap threads and close
        channels.
        """
        self._stopping = True

    def stop(self) -> None:
        """Stop serving.  Ordering matters: channels stay open until the
        serve threads have drained, so two-way requests still queued in
        the admission controller get an explicit ``stopping`` pushback
        reply instead of silently vanishing — a pipelined peer must
        never hang until its own timeout.

        Idempotent and re-entrant: a second call (including one from a
        signal handler that interrupted the first mid-teardown on this
        very thread) returns immediately instead of double-closing or
        deadlocking, and stop-before-start simply pins the endpoint in
        the stopped state.
        """
        self._stopping = True
        if not self._stop_mutex.acquire(blocking=False):
            # Teardown already running — possibly in an outer frame of
            # this same thread (signal handler re-entry), where blocking
            # would self-deadlock.  The flag is set; that is enough.
            return
        try:
            if self._stopped:
                return
            with self._lock:
                listeners = list(self._listeners)
                threads = list(self._threads)
            for listener in listeners:
                listener.close()
            self.admission.stop()
            current = threading.current_thread()
            for thread in threads:
                if thread is current:
                    continue  # a serve thread stopping its own endpoint
                thread.join(timeout=2.0)
            with self._lock:
                channels = list(self._channels)
            for channel in channels:
                channel.close()
            self._stopped = True
        finally:
            self._stop_mutex.release()


class Startpoint:
    """Client handle: synchronous RSR calls over one channel."""

    _ids = IdGenerator("rsr", start=1)

    def __init__(self, channel: Channel, timeout: Optional[float] = 30.0):
        self.channel = channel
        self.timeout = timeout
        self._lock = threading.Lock()

    def call(self, handler: str, payload: bytes, oneway: bool = False,
             priority: int = 0,
             deadline: Optional[float] = None) -> Optional[bytes]:
        """Issue one RSR; returns the reply payload (``None`` if oneway).

        ``priority``/``deadline`` are the admission hints carried in the
        RSR META trailer (``deadline`` is *remaining* seconds).  Raises
        :class:`RemoteException` if the handler raised remotely, or
        :class:`OverloadError` if the server shed the request — an
        overload is a pushback, not a dispatch, so neither
        ``request_sent`` nor ``request_dispatched`` is set and the retry
        layer stays free to retry after the hinted pause.
        """
        request_id = self._ids.next_int()
        message = RsrMessage.request(request_id, handler, payload,
                                     oneway=oneway, priority=priority,
                                     deadline=deadline)
        with self._lock:
            self.channel.send(message.encode())
            if oneway:
                return None
            while True:
                try:
                    reply = RsrMessage.decode(
                        self.channel.recv(self.timeout))
                except HpcError as exc:
                    # The request left this host; whether it reached
                    # dispatch is unknown.  The retry layer uses this
                    # flag to refuse non-idempotent auto-retries.
                    if not getattr(exc, "request_dispatched", False):
                        exc.request_sent = True
                    raise
                if not reply.is_reply() or reply.request_id != request_id:
                    continue  # stale or foreign message: skip
                if reply.is_overload():
                    _raise_overload(reply)
                if reply.is_error():
                    remote_type, remote_msg = loads(reply.payload)
                    raise RemoteException(remote_type, remote_msg)
                return reply.payload

    def close(self) -> None:
        self.channel.close()


class _ReplyWaiter:
    """One outstanding request's rendezvous slot."""

    __slots__ = ("event", "reply", "error")

    def __init__(self):
        self.event = threading.Event()
        self.reply: Optional[RsrMessage] = None
        self.error: Optional[Exception] = None

    def resolve(self, reply: RsrMessage) -> None:
        self.reply = reply
        self.event.set()

    def fail(self, error: Exception) -> None:
        self.error = error
        self.event.set()


class PipelinedStartpoint(Startpoint):
    """Client handle with multiple outstanding requests per channel.

    ``call`` registers a waiter under its request id, sends, and blocks
    on the waiter; a dedicated demux thread reads the channel and routes
    each reply to its waiter by correlation id.  N threads therefore
    share *one* connection with N requests in flight instead of queueing
    behind a per-call channel lock — the transport-level half of the
    batching/pipelining hot path.

    Failure semantics match the plain startpoint: a reply that never
    arrives (timeout or channel death after the send) surfaces a
    transport error flagged ``request_sent``, so the GP's idempotence
    guard still refuses to blind-retry non-retry-safe methods.
    """

    #: Demux poll interval; bounds close() latency, not call latency.
    POLL_S = 0.2

    def __init__(self, channel: Channel, timeout: Optional[float] = 30.0):
        super().__init__(channel, timeout)
        self._pending: Dict[int, _ReplyWaiter] = {}
        self._state = threading.Lock()
        self._reader: Optional[threading.Thread] = None
        self._closed = False
        self._broken: Optional[Exception] = None

    # -- the demux thread ----------------------------------------------------

    def _ensure_reader(self) -> None:
        """Start the demux thread on first use (callers hold _state)."""
        if self._reader is None or not self._reader.is_alive():
            self._reader = threading.Thread(
                target=self._read_loop, name="rsr-demux", daemon=True)
            self._reader.start()

    def _read_loop(self) -> None:
        while True:
            with self._state:
                if self._closed:
                    return
            try:
                data = self.channel.recv(timeout=self.POLL_S)
            except ChannelClosedError as exc:
                self._fail_all(exc)
                return
            except HpcError as exc:
                if getattr(self.channel, "closed", False):
                    # e.g. a mid-frame timeout made the channel unusable.
                    self._fail_all(exc)
                    return
                continue  # idle poll tick
            try:
                reply = RsrMessage.decode(data)
            except HpcError:
                continue  # undecodable message: protocol noise, skip
            if not reply.is_reply():
                continue
            with self._state:
                waiter = self._pending.pop(reply.request_id, None)
            if waiter is not None:
                waiter.resolve(reply)
            # no waiter: a timed-out or cancelled request's late reply —
            # dropped, never cross-delivered to another request.

    def _fail_all(self, cause: Exception) -> None:
        with self._state:
            self._broken = cause
            victims = list(self._pending.values())
            self._pending.clear()
        for waiter in victims:
            error = ChannelClosedError(
                f"channel died with request in flight: {cause}")
            error.request_sent = True
            waiter.fail(error)

    @property
    def inflight(self) -> int:
        """Outstanding request count (observability/tests)."""
        with self._state:
            return len(self._pending)

    # -- calls ---------------------------------------------------------------

    def call(self, handler: str, payload: bytes, oneway: bool = False,
             priority: int = 0,
             deadline: Optional[float] = None) -> Optional[bytes]:
        request_id = self._ids.next_int()
        message = RsrMessage.request(request_id, handler, payload,
                                     oneway=oneway, priority=priority,
                                     deadline=deadline)
        if oneway:
            with self._lock:
                self.channel.send(message.encode())
            return None
        waiter = _ReplyWaiter()
        with self._state:
            if self._closed:
                raise ChannelClosedError("call on closed startpoint")
            if self._broken is not None:
                raise ChannelClosedError(
                    f"channel already failed: {self._broken}")
            self._pending[request_id] = waiter
            self._ensure_reader()
        try:
            with self._lock:       # serializes *sends*, not round trips
                self.channel.send(message.encode())
        except Exception:
            with self._state:
                self._pending.pop(request_id, None)
            raise
        if not waiter.event.wait(self.timeout):
            with self._state:
                self._pending.pop(request_id, None)
            exc = TransportError(
                f"request {request_id} timed out after {self.timeout}s "
                "with no reply")
            # The request left this host; dispatch status is unknown.
            exc.request_sent = True
            raise exc
        if waiter.error is not None:
            raise waiter.error
        reply = waiter.reply
        if reply.is_overload():
            _raise_overload(reply)
        if reply.is_error():
            remote_type, remote_msg = loads(reply.payload)
            raise RemoteException(remote_type, remote_msg)
        return reply.payload

    def close(self) -> None:
        with self._state:
            if self._closed:
                return
            self._closed = True
            reader = self._reader
        self.channel.close()
        self._fail_all(ChannelClosedError("startpoint closed"))
        if reader is not None and reader is not threading.current_thread():
            reader.join(timeout=2.0)
