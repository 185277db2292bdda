"""Admission policy: the swappable knobs of server-side overload control.

The paper's capability model meters *clients* (quotas, leases, §4.2);
this is the matching server-side resource policy, packaged Open
Implementation-style as one plain policy object a context can swap at
runtime (``ctx.set_admission_policy``) — "resource policies belong in
swappable middleware policy objects" (Dearle et al.).

Three admission classes, ordered by urgency::

    INTERACTIVE (0)  request/reply traffic a human or a caller's caller
                     is blocked on; served first.
    BATCH (1)        throughput work; absorbs queueing delay.
    BEST_EFFORT (2)  shed first, served last.

Costs are in *units*: an ordinary call is 1 unit, a ``BatchRequest`` of
N members is N units (so batching cannot be used to smuggle load past
admission), and a capability-processed (glue) batch — whose member
count is encrypted — is charged a flat conservative estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["INTERACTIVE", "BATCH", "BEST_EFFORT", "CLASS_NAMES",
           "class_ordinal", "AdmissionPolicy"]

INTERACTIVE = 0
BATCH = 1
BEST_EFFORT = 2

#: Ordinal -> human name, in priority order.
CLASS_NAMES = ("interactive", "batch", "best-effort")


def class_ordinal(name) -> int:
    """Map a class name (or an already-valid ordinal) to its ordinal."""
    if isinstance(name, int):
        if 0 <= name < len(CLASS_NAMES):
            return name
        raise ValueError(f"unknown admission class ordinal {name}")
    try:
        return CLASS_NAMES.index(str(name))
    except ValueError:
        raise ValueError(f"unknown admission class {name!r}") from None


@dataclass
class AdmissionPolicy:
    """Knobs for one endpoint's admission controller.

    ``retry_after`` scales with queue fill so pushback strength tracks
    pressure: an almost-empty queue hints a short pause, a full one a
    long pause — see :meth:`retry_after_hint`.
    """

    #: Master switch.  Off does not bypass admission: the controller
    #: builds an unbounded queue and pins the limit at ``max_limit``, so
    #: requests still pass through it but are only ever shed for an
    #: expired deadline or a stopping endpoint.
    enabled: bool = False
    #: Bound on queued cost units across all classes; offers beyond it
    #: are shed with a pushback reply (ignored while disabled).
    queue_capacity: int = 64
    #: Serve the *newest* request within a class first.  Under sustained
    #: overload FIFO serves the oldest — most-likely-already-expired —
    #: work first; LIFO trades per-class fairness for useful goodput.
    lifo: bool = False
    #: Concurrency-limit bounds and adaptation step for the AIMD limiter.
    #: A threaded endpoint runs ``max_limit`` dispatch workers.
    min_limit: int = 1
    max_limit: int = 16
    initial_limit: Optional[int] = None
    #: Completions per adaptation window.
    window: int = 32
    #: p50 may inflate to ``tolerance`` x the observed baseline before
    #: the limit is cut.
    tolerance: float = 2.0
    #: Multiplicative decrease factor / additive increase step.
    decrease: float = 0.8
    increase: int = 1
    #: Base pushback hint (seconds) when shedding with an empty queue.
    retry_after: float = 0.05
    #: Flat unit cost charged for a glue batch, whose member count is
    #: hidden inside capability-processed bytes.
    opaque_batch_cost: int = 4

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if not 1 <= self.min_limit <= self.max_limit:
            raise ValueError("need 1 <= min_limit <= max_limit")
        if self.initial_limit is not None and not \
                self.min_limit <= self.initial_limit <= self.max_limit:
            raise ValueError("initial_limit outside [min_limit, max_limit]")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.tolerance <= 1.0:
            raise ValueError("tolerance must be > 1")
        if not 0.0 < self.decrease < 1.0:
            raise ValueError("decrease must be in (0, 1)")
        if self.increase < 1:
            raise ValueError("increase must be >= 1")
        if self.retry_after < 0:
            raise ValueError("retry_after must be non-negative")
        if self.opaque_batch_cost < 1:
            raise ValueError("opaque_batch_cost must be >= 1")

    def retry_after_hint(self, queued_units: int) -> float:
        """The pushback hint for a shed at the given queue occupancy:
        ``retry_after * (1 + fill)``, so a saturated queue asks clients
        to stay away twice as long as an empty one."""
        fill = min(queued_units / self.queue_capacity, 1.0)
        return self.retry_after * (1.0 + fill)
