"""The admission controller: queue + limiter + shed decisions.

One controller fronts one :class:`~repro.nexus.endpoint.Endpoint` and
is its only dispatch mechanism for threaded two-way requests.  Every
such request is *offered*; the controller either admits it into the
priority queue (``admit`` event) or sheds it with a pushback reply
(``shed`` event).  Workers draw admitted work through :meth:`pop`
(blocking, threaded transports) or :meth:`try_pop` (non-blocking, the
synchronous simulated world), both gated by the
:class:`ConcurrencyLimiter`; completions feed service latency back
through :meth:`finish`.

The policy only picks values: ``enabled=False`` is an unbounded queue
and a limit pinned at ``max_limit``, not a bypass.

Shed reasons — the vocabulary of the ``shed`` event and of
:class:`~repro.exceptions.OverloadError.reason`::

    queue_full   the bounded queue could not take the request's cost
    deadline     the request's remaining time budget expired (on
                 arrival, or while it sat in the queue)
    stopping     the endpoint is shutting down
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from typing import Callable, Optional

from repro.admission.limiter import ConcurrencyLimiter
from repro.admission.policy import AdmissionPolicy
from repro.admission.queue import AdmissionQueue, QueuedItem
from repro.serialization.marshal import peek_batch_count
from repro.util.timing import TimeSource, WallClock

__all__ = ["AdmissionController"]

#: Handler-name literals, duplicated from repro.core.protocol to keep
#: the admission package importable below the core layer.
_BATCH_HANDLER = "hpc.invoke.batch"
_GLUE_BATCH_HANDLER = "hpc.glue.batch"

#: reject callback signature: (retry_after_seconds, reason) -> None
Reject = Callable[[float, str], None]


class AdmissionController:
    """Admission decisions for one endpoint."""

    def __init__(self, policy: Optional[AdmissionPolicy] = None,
                 clock: Optional[TimeSource] = None, hooks=None):
        if hooks is None:
            from repro.core.instrumentation import GLOBAL_HOOKS
            hooks = GLOBAL_HOOKS
        self.hooks = hooks
        self.clock = clock if clock is not None else WallClock()
        self._build(policy if policy is not None else AdmissionPolicy())
        #: Guards queue, limiter and ``_parked``; reentrant so an event
        #: handler fired under it may read back into the controller.
        self._lock = threading.RLock()
        #: Wake locks of workers waiting in :meth:`pop`, newest last.
        self._parked: list = []
        self._stopping = False
        self.admitted = 0
        self.shed = 0
        self.max_depth = 0

    @property
    def policy(self) -> AdmissionPolicy:
        return self._policy

    def _build(self, policy: AdmissionPolicy) -> None:
        """Install ``policy`` with a fresh queue and limiter.  A disabled
        policy means no queue bound and a limit pinned at ``max_limit``."""
        self._policy = policy
        if policy.enabled:
            capacity, pinned = policy.queue_capacity, policy
        else:
            capacity = sys.maxsize
            pinned = dataclasses.replace(policy, min_limit=policy.max_limit,
                                         initial_limit=None)
        self.queue = AdmissionQueue(capacity, lifo=policy.lifo)
        self.limiter = ConcurrencyLimiter(pinned, hooks=self.hooks)

    def set_policy(self, policy: AdmissionPolicy) -> None:
        """Swap the policy at runtime (Open Implementation style).

        Queued work survives: the queue is rebuilt at the new capacity
        and existing items re-offered in priority order; anything the
        smaller queue cannot take is shed with pushback.
        """
        with self._lock:
            old_items = self.queue.drain()
            self._build(policy)
            overflow = []
            for item in old_items:
                if not self.queue.offer(item):
                    overflow.append(item)
            self._wake(len(self._parked))
        for item in overflow:
            self._shed(item.priority, item.cost,
                       self._policy.retry_after_hint(self.queue.units),
                       "queue_full", item.extra)

    # -- cost classification ------------------------------------------------

    def classify(self, handler: str, payload: bytes) -> int:
        """The cost in units of one request, by a cheap payload peek.

        A batch is N units (its member count is a fixed-offset header
        word); a glue batch hides its count inside capability-processed
        bytes and is charged a flat conservative estimate.
        """
        if handler == _BATCH_HANDLER:
            count = peek_batch_count(payload)
            return max(count, 1) if count is not None else 1
        if handler == _GLUE_BATCH_HANDLER:
            return self._policy.opaque_batch_cost
        return 1

    # -- offering ------------------------------------------------------------

    def _shed(self, priority: int, cost: int, retry_after: float,
              reason: str, reject: Optional[Reject]) -> None:
        self.shed += 1
        self.hooks.emit("shed", reason=reason, priority=priority,
                        cost=cost, retry_after=retry_after,
                        depth=self.queue.depth)
        if reject is not None:
            reject(retry_after, reason)

    def submit(self, work, *, priority: int = 0,
               deadline_remaining: Optional[float] = None, cost: int = 1,
               reject: Optional[Reject] = None) -> bool:
        """Offer one request; True = admitted, False = shed.

        ``reject`` is called (with the retry-after hint and the shed
        reason) for every shed, here or later — an admitted item that
        expires in the queue still answers its peer through it.
        """
        if self._stopping:
            self._shed(priority, cost, self._policy.retry_after, "stopping",
                       reject)
            return False
        expires_at = None
        if deadline_remaining is not None:
            if deadline_remaining <= 0:
                self._shed(priority, cost, 0.0, "deadline", reject)
                return False
            expires_at = self.clock.now() + deadline_remaining
        item = QueuedItem(work=work, priority=priority, cost=cost,
                          expires_at=expires_at, extra=reject)
        with self._lock:
            admitted = self.queue.offer(item)
            if admitted:
                self.admitted += 1
                self.max_depth = max(self.max_depth, self.queue.depth)
                self._wake(1)
        if not admitted:
            self._shed(priority, cost,
                       self._policy.retry_after_hint(self.queue.units),
                       "queue_full", reject)
            return False
        self.hooks.emit("admit", priority=priority, cost=cost,
                        depth=self.queue.depth, units=self.queue.units)
        return True

    # -- drawing work --------------------------------------------------------

    def _take(self) -> Optional[QueuedItem]:
        """One admitted, unexpired item under an acquired slot, or None.

        Expired items found at the head are shed on the spot (their
        reject callback answers the peer) rather than dispatched dead.
        The queue is checked before a slot is claimed, so an empty queue
        costs no limiter round trip.
        """
        while self.queue.units and self.limiter.try_acquire():
            item = self.queue.pop()
            if item.expires_at is None \
                    or self.clock.now() <= item.expires_at:
                return item
            self.limiter.release(-1.0)
            self._shed(item.priority, item.cost, 0.0, "deadline", item.extra)
        return None

    def pop(self, timeout: Optional[float] = None) -> Optional[QueuedItem]:
        """Blocking draw for threaded workers; None on timeout/stop.

        A worker with nothing to take parks on a lock of its own until
        :meth:`_wake` releases it or ``timeout`` passes.
        """
        with self._lock:
            item = self._take()
            if item is not None or self._stopping:
                return item
            parked = threading.Lock()
            parked.acquire()
            self._parked.append(parked)
        woken = parked.acquire(timeout=-1 if timeout is None else timeout)
        with self._lock:
            if not woken and parked in self._parked:
                self._parked.remove(parked)
            return self._take()

    def _wake(self, count: int) -> None:
        """Release up to ``count`` parked workers, newest first (caller
        holds the lock): light load keeps one warm worker busy instead
        of rotating through all of them."""
        for _ in range(min(count, len(self._parked))):
            self._parked.pop().release()

    def try_pop(self) -> Optional[QueuedItem]:
        """Non-blocking draw (the synchronous simulated world)."""
        with self._lock:
            return self._take()

    def finish(self, item: QueuedItem, latency: float) -> None:
        """Report one dispatch complete; feeds the adaptive limit.

        Wakes a worker only if work is queued; releasing and checking
        under the lock means a worker that parked for want of a slot
        cannot miss the wake-up.
        """
        with self._lock:
            queued = self.queue.units > 0
            self.limiter.release(latency, queued=queued)
            if queued:
                self._wake(1)

    # -- lifecycle -----------------------------------------------------------

    def stop(self, reason: str = "stopping") -> int:
        """Refuse new offers and shed everything queued; returns the
        shed count.  Every queued item's reject callback fires, so no
        admitted peer is left hanging until its own timeout."""
        with self._lock:
            self._stopping = True
            victims = self.queue.drain()
            self._wake(len(self._parked))
        for item in victims:
            self._shed(item.priority, item.cost, self._policy.retry_after,
                       reason, item.extra)
        return len(victims)

    def snapshot(self) -> dict:
        """Operational snapshot (``ctx.describe()`` embeds this)."""
        return {
            "enabled": self._policy.enabled,
            "queue_depth": self.queue.depth,
            "queue_units": self.queue.units,
            "queue_capacity": self._policy.queue_capacity,
            "by_class": self.queue.depth_by_class(),
            "admitted": self.admitted,
            "shed": self.shed,
            "max_depth": self.max_depth,
            **self.limiter.snapshot(),
        }
