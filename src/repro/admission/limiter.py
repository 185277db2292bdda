"""Adaptive concurrency limiter: AIMD over observed service latency.

Caps an endpoint's concurrent two-way dispatches with a limit that
*tracks the service's actual capacity*: every completed dispatch
feeds its service latency in; once per ``window`` completions the
windowed p50 is compared against the best (lowest) p50 ever observed —
the congestion-free baseline.  Latency inflating past ``tolerance`` x
baseline means added concurrency is only buying queueing delay
(Little's law), so the limit is cut multiplicatively; a healthy window
with demand waiting grows it additively.  Classic AIMD, gradient-style
congestion signal.

Deterministic by construction: decisions are pure arithmetic over the
completion sequence — no clock reads, no randomness — so seeded simnet
runs converge bit-for-bit.  No lock of its own: the controller calls
it only while holding its lock.  A disabled admission policy pins the
limit by handing this class ``min_limit == max_limit`` (see
:class:`~repro.admission.controller.AdmissionController`).
"""

from __future__ import annotations

from typing import Optional

from repro.admission.policy import AdmissionPolicy
from repro.metrics.core import nearest_rank

__all__ = ["ConcurrencyLimiter"]


class ConcurrencyLimiter:
    """AIMD limit on concurrent dispatches, fed by service latency."""

    def __init__(self, policy: AdmissionPolicy, hooks=None):
        self.policy = policy
        self.hooks = hooks
        self._limit = policy.initial_limit if policy.initial_limit \
            is not None else policy.max_limit
        self._inflight = 0
        self._window: list = []
        self._demand_seen = False
        self._baseline: Optional[float] = None
        self.adjustments = 0

    @property
    def limit(self) -> int:
        return self._limit

    @property
    def inflight(self) -> int:
        return self._inflight

    def try_acquire(self) -> bool:
        """Claim one dispatch slot; False when the limit is reached."""
        if self._inflight >= self._limit:
            return False
        self._inflight += 1
        return True

    def release(self, latency: float, queued: bool = False) -> None:
        """Return a slot and feed the adaptation loop.

        ``latency`` is the dispatch's service time (queueing excluded);
        ``queued`` says whether work was waiting when it completed —
        the demand signal that justifies additive increase.
        """
        self._inflight = max(self._inflight - 1, 0)
        if latency >= 0:
            self._window.append(latency)
        self._demand_seen = self._demand_seen or queued
        if len(self._window) < self.policy.window:
            return
        samples = sorted(self._window)
        self._window = []
        demand, self._demand_seen = self._demand_seen, False
        p50 = nearest_rank(samples, 0.5)
        if self._baseline is None or p50 < self._baseline:
            self._baseline = p50
        previous = self._limit
        if p50 > self.policy.tolerance * self._baseline:
            self._limit = max(self.policy.min_limit,
                              min(self._limit - 1,
                                  int(self._limit * self.policy.decrease)))
        elif demand:
            self._limit = min(self.policy.max_limit,
                              self._limit + self.policy.increase)
        if self._limit == previous:
            return
        self.adjustments += 1
        if self.hooks is not None:
            self.hooks.emit("limit_change", limit=self._limit,
                            previous=previous, p50=p50,
                            baseline=self._baseline)

    def snapshot(self) -> dict:
        return {"limit": self._limit, "inflight": self._inflight,
                "baseline_p50": self._baseline,
                "adjustments": self.adjustments}
