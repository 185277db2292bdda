"""Resilient invocation policy objects: retries, hedging, breaker states.

The paper's ordered protocol table is an *adaptation* mechanism: when a
protocol stops working the ORB can fall through to the next applicable
entry (§3.2).  This module supplies the policy half of that story:

* :class:`RetryPolicy` — how many attempts a GP may spend on one logical
  invocation, how long to back off between them (exponential with seeded
  jitter, so simulated runs are bit-for-bit reproducible), and an
  optional per-call deadline measured on the calling context's clock.
* :class:`HedgePolicy` — when and how to race a second attempt for
  retry-safe methods: after the tracked latency crosses a percentile,
  not after the timeout (the paper's adaptive table, §3.2, made
  proactive).
* :class:`BreakerState` — the closed / open / half-open states of a
  ``(context, proto)`` circuit breaker.

The per-peer *state* these policies read — retry budgets, circuit
breakers, pushback deadlines, latency windows — lives in one
:class:`~repro.core.peers.PeerTable` per calling context.

All randomness comes from :class:`repro.security.prng.Pcg32`; nothing
here reads the wall clock directly, so under a
:class:`~repro.simnet.clock.VirtualClock` the whole recovery path is
deterministic.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Optional

from repro.security.prng import Pcg32
from repro.util.timing import TimeSource

__all__ = [
    "AttemptRecord",
    "RetryPolicy",
    "HedgePolicy",
    "BreakerState",
    "sleep_on",
]


@dataclass(frozen=True)
class AttemptRecord:
    """One failed invocation attempt, kept in the trail of a
    :class:`~repro.exceptions.ResilienceError`."""

    attempt: int
    proto_id: str
    error: str
    at: float                  # clock time when the attempt failed
    dispatched: bool = False   # did the request (possibly) reach dispatch?


def sleep_on(clock: TimeSource, seconds: float) -> None:
    """Pause for ``seconds`` on the given time source.

    A virtual clock is advanced in place (deterministic, instant); a wall
    clock really sleeps.  Used for retry backoff so the same policy code
    drives both worlds.
    """
    if seconds <= 0:
        return
    advance = getattr(clock, "advance", None)
    if advance is not None:
        advance(seconds)
    else:
        time.sleep(seconds)


class RetryPolicy:
    """Retry budget and backoff schedule for one GP.

    ``backoff(attempt)`` for attempt ``n`` (1-based) is
    ``min(base * multiplier**(n-1), max_backoff)`` scaled by a seeded
    jitter factor in ``[1, 1 + jitter]``.  ``deadline`` (seconds, by the
    calling context's clock) bounds the whole logical call including
    backoff pauses.

    ``retry_unsafe=True`` drops the idempotence guard and retries even
    when a request may have reached dispatch — only sensible when every
    method of the interface is idempotent by construction.
    """

    def __init__(self, max_attempts: int = 3, base_backoff: float = 0.05,
                 multiplier: float = 2.0, max_backoff: float = 2.0,
                 jitter: float = 0.25, deadline: Optional[float] = None,
                 seed: int = 0, retry_unsafe: bool = False):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if base_backoff < 0 or max_backoff < 0:
            raise ValueError("backoff times must be non-negative")
        if multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.max_attempts = max_attempts
        self.base_backoff = base_backoff
        self.multiplier = multiplier
        self.max_backoff = max_backoff
        self.jitter = jitter
        self.deadline = deadline
        self.retry_unsafe = retry_unsafe
        self.seed = seed
        self._rng = Pcg32(seed, stream=0x5E11)

    def backoff(self, attempt: int) -> float:
        """Pause before retry number ``attempt`` (1-based count of
        failures so far)."""
        base = min(self.base_backoff * self.multiplier ** (attempt - 1),
                   self.max_backoff)
        if self.jitter == 0:
            return base
        return base * (1.0 + self.jitter * self._rng.uniform())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"RetryPolicy(max_attempts={self.max_attempts}, "
                f"base={self.base_backoff}, deadline={self.deadline})")


class HedgePolicy:
    """When to race a second attempt for a retry-safe method.

    A hedge fires once the primary attempt has been outstanding longer
    than the ``quantile`` of the tracked latency distribution for the
    same ``(peer context, protocol)`` pair; the second attempt runs on
    the next-best applicable protocol-table entry (or a fresh connection
    over the same entry when the table has no alternative) and the first
    reply wins.  ``min_samples`` keeps the policy quiet until the
    latency window has seen enough traffic to know what "slow" means;
    ``min_delay``/``max_delay`` clamp the trigger.  ``max_hedges`` is
    the number of extra attempts per logical call (only 1 is currently
    raced).
    """

    def __init__(self, enabled: bool = True, quantile: float = 0.95,
                 min_samples: int = 20, min_delay: float = 0.0,
                 max_delay: Optional[float] = None, max_hedges: int = 1):
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if min_delay < 0:
            raise ValueError("min_delay must be non-negative")
        if max_delay is not None and max_delay < min_delay:
            raise ValueError("max_delay must be >= min_delay")
        if max_hedges < 0:
            raise ValueError("max_hedges must be non-negative")
        self.enabled = enabled
        self.quantile = quantile
        self.min_samples = min_samples
        self.min_delay = min_delay
        self.max_delay = max_delay
        self.max_hedges = max_hedges

    def hedge_delay(self, latency) -> Optional[float]:
        """Seconds to wait before hedging, or None to not hedge.

        ``latency`` is a :class:`~repro.core.peers.LatencyView`
        (anything with ``count`` and ``quantile(q)``).
        """
        if not self.enabled or self.max_hedges < 1:
            return None
        if latency is None or latency.count < self.min_samples:
            return None
        delay = latency.quantile(self.quantile)
        if delay is None:
            return None
        delay = max(delay, self.min_delay)
        if self.max_delay is not None:
            delay = min(delay, self.max_delay)
        return delay

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"HedgePolicy(enabled={self.enabled}, "
                f"q={self.quantile}, min_samples={self.min_samples})")


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"
