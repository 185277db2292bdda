"""Server-side admission control and overload protection.

The client-metering capabilities of §4.2 (quotas, leases) have a
missing mirror: nothing protects a *server* from the unbounded
correlation-id'd pipelines PR 4 made cheap.  This package is that
mirror — a policy-driven admission layer every
:class:`~repro.nexus.endpoint.Endpoint` can dispatch through:

* :class:`AdmissionPolicy` — the swappable knob object
  (``ctx.set_admission_policy``), Open Implementation style;
* :class:`AdmissionQueue` — bounded, priority-classed
  (interactive / batch / best-effort), cost-unit-accounted queue with
  an optional LIFO-within-class discipline;
* :class:`ConcurrencyLimiter` — AIMD limit on in-flight dispatches fed
  by observed service latency;
* :class:`AdmissionController` — the shed/admit decision point wiring
  queue + limiter to an endpoint, emitting ``admit`` / ``shed`` /
  ``limit_change`` events.  It is the endpoint's only dispatch path for
  threaded two-way requests; a disabled policy only changes its values
  (unbounded queue, limit pinned at ``max_limit``);
* :func:`deadline_scope` / :func:`ambient_deadline` — server-side
  deadline propagation, so an expired budget sheds before dispatch and
  nested invokes inherit the shrunken remainder.

See ``docs/ADMISSION.md`` for the policy model and pushback contract.
"""

from repro.admission.controller import AdmissionController
from repro.admission.deadline import ambient_deadline, deadline_scope
from repro.admission.limiter import ConcurrencyLimiter
from repro.admission.policy import (
    BATCH,
    BEST_EFFORT,
    CLASS_NAMES,
    INTERACTIVE,
    AdmissionPolicy,
    class_ordinal,
)
from repro.admission.queue import AdmissionQueue, QueuedItem

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "AdmissionQueue",
    "QueuedItem",
    "ConcurrencyLimiter",
    "INTERACTIVE",
    "BATCH",
    "BEST_EFFORT",
    "CLASS_NAMES",
    "class_ordinal",
    "ambient_deadline",
    "deadline_scope",
]
