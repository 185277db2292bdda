"""Per-peer call state: one locked table for everything a calling
context remembers about the contexts it talks to.

Policies (:class:`~repro.core.resilience.RetryPolicy`,
:class:`~repro.core.resilience.HedgePolicy`,
:class:`~repro.core.batching.BatchPolicy`) decide; :class:`PeerTable`
only holds their state: one :class:`PeerState` row per remote context
id, under one lock, with a retry-budget token bucket, an overload
pushback deadline, and per proto a circuit breaker, a latency window
and a call coalescer (see docs/RESILIENCE.md, "Per-peer state").

Breaker transitions are pure functions over a :class:`Breaker` value.
Only a trip from closed publishes ``breaker_open`` (a failed half-open
probe re-opens silently) and only a recovery publishes
``breaker_close``, so opens minus closes always counts the breakers
that are not closed.  Nothing here draws randomness: under a
:class:`~repro.simnet.clock.VirtualClock` every decision is
deterministic.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

from repro.core.batching import CallCoalescer
from repro.core.instrumentation import GLOBAL_HOOKS
from repro.core.resilience import BreakerState
from repro.metrics.core import nearest_rank
from repro.util.timing import TimeSource

__all__ = ["PeerTable", "PeerState", "Breaker", "LatencyView",
           "LATENCY_WINDOW"]

#: Successful-call durations kept per ``(peer, proto)``: a protocol
#: that slows down ages its fast history out within this many calls.
LATENCY_WINDOW = 128


class Breaker(NamedTuple):
    """One ``(peer, proto)`` circuit breaker's fields."""

    state: BreakerState = BreakerState.CLOSED
    failures: int = 0                  # consecutive failures
    opened_at: Optional[float] = None  # clock time of the last (re)open


_CLOSED = Breaker()


def _half_opened(breaker: Breaker, now: float, cooldown: float) -> Breaker:
    """An open breaker turns half-open once its cooldown has elapsed."""
    if breaker.state is BreakerState.OPEN \
            and now - breaker.opened_at >= cooldown:
        return breaker._replace(state=BreakerState.HALF_OPEN)
    return breaker


def _failed(breaker: Breaker, now: float, threshold: int) -> Breaker:
    """A failure: a half-open probe re-opens at once, a closed breaker
    opens at ``threshold`` consecutive failures."""
    if breaker.state is BreakerState.HALF_OPEN:
        return breaker._replace(state=BreakerState.OPEN, opened_at=now)
    failures = breaker.failures + 1
    if breaker.state is BreakerState.CLOSED and failures >= threshold:
        return Breaker(BreakerState.OPEN, failures, now)
    return breaker._replace(failures=failures)


class LatencyView(NamedTuple):
    """A ``(peer, proto)`` latency window as of one read."""

    count: int                 # observations ever, not just the window
    ordered: Tuple[float, ...]  # the current window, sorted

    def quantile(self, q: float) -> Optional[float]:
        """Nearest-rank ``q``-quantile of the window (None when empty)."""
        return nearest_rank(self.ordered, q) if self.ordered else None


@dataclass(slots=True, eq=False)
class PeerState:
    """Everything a calling context remembers about one remote context."""

    tokens: float                # retry budget left
    deposits: int = 0            # logical calls seen
    withdrawals: int = 0         # retries granted
    refusals: int = 0            # retries refused
    pushback_until: float = 0.0  # clock time the peer's hint expires
    # Per proto id:
    breakers: Dict[str, Breaker] = field(default_factory=dict)
    samples: Dict[str, Deque[float]] = field(default_factory=dict)
    observed: Dict[str, int] = field(default_factory=dict)
    coalescers: Dict[str, CallCoalescer] = field(default_factory=dict)


class PeerTable:
    """One calling context's :class:`PeerState` rows (``ctx.peers``),
    shared by every GP bound there unless a GP is bound with a private
    table (``peers=``).  Hooks run outside the lock."""

    def __init__(self, clock: TimeSource, failure_threshold: int = 5,
                 cooldown: float = 30.0, max_tokens: float = 10.0,
                 deposit_per_call: float = 0.1,
                 withdraw_per_retry: float = 1.0, hooks=None):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        if max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        if deposit_per_call < 0:
            raise ValueError("deposit_per_call must be non-negative")
        if withdraw_per_retry <= 0:
            raise ValueError("withdraw_per_retry must be positive")
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.max_tokens = float(max_tokens)
        self.deposit_per_call = float(deposit_per_call)
        self.withdraw_per_retry = float(withdraw_per_retry)
        self.hooks = hooks if hooks is not None else GLOBAL_HOOKS
        #: Pushback hints noted (all peers).
        self.pushback_notes = 0
        self._rows: Dict[str, PeerState] = {}
        self._lock = threading.Lock()

    def _row(self, context_id: str) -> PeerState:
        """Get-or-create a row; the caller holds the lock."""
        row = self._rows.get(context_id)
        if row is None:
            row = self._rows[context_id] = PeerState(self.max_tokens)
        return row

    def row(self, context_id: str) -> PeerState:
        """A peer's row (created on first use); read it for diagnostics."""
        with self._lock:
            return self._row(context_id)

    # -- retry budget ----------------------------------------------------

    def deposit(self, context_id: str) -> None:
        """Credit one logical call's worth of retry allowance."""
        with self._lock:
            row = self._row(context_id)
            row.deposits += 1
            row.tokens = min(row.tokens + self.deposit_per_call,
                             self.max_tokens)

    def try_withdraw(self, context_id: str) -> bool:
        """Spend one retry's worth of tokens; False when exhausted."""
        with self._lock:
            row = self._row(context_id)
            if row.tokens < self.withdraw_per_retry:
                row.refusals += 1
                return False
            row.tokens -= self.withdraw_per_retry
            row.withdrawals += 1
            return True

    # -- pushback --------------------------------------------------------

    def note_pushback(self, context_id: str, retry_after: float) -> None:
        """Record a peer's retry-after hint; hints only extend."""
        if retry_after <= 0:
            return
        until = self.clock.now() + retry_after
        with self._lock:
            self.pushback_notes += 1
            row = self._row(context_id)
            row.pushback_until = max(row.pushback_until, until)

    def pushback_remaining(self, context_id: str) -> float:
        """Seconds of pushback left for a peer (0.0 when none)."""
        with self._lock:
            row = self._rows.get(context_id)
            until = 0.0 if row is None else row.pushback_until
        return max(until - self.clock.now(), 0.0)

    # -- circuit breakers --------------------------------------------------

    def allow(self, context_id: str, proto_id: str) -> bool:
        """May a request use this ``(peer, proto)`` right now?  (An open
        breaker whose cooldown elapsed turns half-open and admits it.)"""
        with self._lock:
            row = self._rows.get(context_id)
            breaker = None if row is None else row.breakers.get(proto_id)
            if breaker is None or breaker.state is not BreakerState.OPEN:
                return True
            breaker = _half_opened(breaker, self.clock.now(), self.cooldown)
            row.breakers[proto_id] = breaker
            return breaker.state is not BreakerState.OPEN

    def breaker(self, context_id: str, proto_id: str) -> Breaker:
        """A breaker's current fields (a closed one is created)."""
        with self._lock:
            return self._row(context_id).breakers.setdefault(proto_id,
                                                             _CLOSED)

    def record_success(self, context_id: str, proto_id: str,
                       latency: Optional[float] = None) -> bool:
        """Note a success and add its duration, when given and not
        negative, to the latency window; returns True if this closed a
        breaker that was open or half-open."""
        with self._lock:
            row = self._row(context_id)
            closed = row.breakers.get(proto_id, _CLOSED).state \
                is not BreakerState.CLOSED
            row.breakers[proto_id] = _CLOSED
            if latency is not None and latency >= 0:
                samples = row.samples.get(proto_id)
                if samples is None:
                    samples = row.samples[proto_id] = deque(
                        maxlen=LATENCY_WINDOW)
                samples.append(latency)
                row.observed[proto_id] = row.observed.get(proto_id, 0) + 1
        if closed:
            self.hooks.emit("breaker_close", context_id=context_id,
                            proto_id=proto_id)
        return closed

    def record_failure(self, context_id: str, proto_id: str) -> bool:
        """Note a failure; returns True if this (re)opened the breaker.
        Only a trip from closed publishes ``breaker_open``."""
        now = self.clock.now()
        with self._lock:
            breakers = self._row(context_id).breakers
            before = breakers.get(proto_id, _CLOSED)
            after = breakers[proto_id] = _failed(before, now,
                                                 self.failure_threshold)
        if before.state is BreakerState.CLOSED \
                and after.state is BreakerState.OPEN:
            self.hooks.emit("breaker_open", context_id=context_id,
                            proto_id=proto_id, failures=after.failures,
                            cooldown=self.cooldown)
        return before.state is not BreakerState.OPEN \
            and after.state is BreakerState.OPEN

    def record_probe(self, context_id: str, alive: bool) -> None:
        """Feed a health-probe verdict into every breaker of a peer.
        Only breakers that already exist are touched — a probe says
        nothing about protocols nobody has tried yet."""
        with self._lock:
            row = self._rows.get(context_id)
            protos = [] if row is None else list(row.breakers)
        record = self.record_success if alive else self.record_failure
        for proto_id in protos:
            record(context_id, proto_id)

    def open_keys(self) -> List[str]:
        """Every breaker that is not closed, as ``"context:proto"``."""
        return self.snapshot()["breakers_open"]

    # -- latency windows -------------------------------------------------

    def latency(self, context_id: str, proto_id: str) -> LatencyView:
        """The ``(peer, proto)`` window of successful-call durations."""
        with self._lock:
            row = self._rows.get(context_id)
            if row is None or proto_id not in row.samples:
                return LatencyView(0, ())
            count = row.observed[proto_id]
            window = list(row.samples[proto_id])
        return LatencyView(count, tuple(sorted(window)))

    # -- coalescers --------------------------------------------------------

    def coalescer(self, context, context_id: str,
                  proto_id: str) -> CallCoalescer:
        """The calling ``context``'s coalescer for ``(peer, proto)``."""
        with self._lock:
            coalescers = self._row(context_id).coalescers
            co = coalescers.get(proto_id)
            if co is None:
                co = coalescers[proto_id] = CallCoalescer(
                    context, context_id, proto_id)
            return co

    def _coalescers(self, context_id: Optional[str] = None):
        with self._lock:
            return [co for cid, row in self._rows.items()
                    if context_id in (None, cid)
                    for co in row.coalescers.values()]

    def flush(self, context_id: Optional[str] = None) -> int:
        """Flush every coalescer (those aimed at ``context_id`` only,
        when given); returns the member count."""
        return sum(co.flush() for co in self._coalescers(context_id))

    def pending_calls(self) -> int:
        """Calls currently waiting in any coalescer."""
        return sum(co.pending for co in self._coalescers())

    # -- diagnostics -------------------------------------------------------

    def snapshot(self) -> dict:
        """The ``breakers_open``, ``retry_budgets`` and ``pushback``
        entries of ``ctx.describe()``."""
        with self._lock:
            now = self.clock.now()
            return {
                "breakers_open": sorted(
                    f"{cid}:{pid}" for cid, row in self._rows.items()
                    for pid, b in row.breakers.items()
                    if b.state is not BreakerState.CLOSED),
                "retry_budgets": {cid: row.tokens
                                  for cid, row in self._rows.items()},
                "pushback": {cid: round(row.pushback_until - now, 6)
                             for cid, row in self._rows.items()
                             if row.pushback_until > now},
            }
