"""Bounded, priority-classed admission queue.

One deque per admission class; ``pop`` always serves the most urgent
non-empty class, FIFO or LIFO *within* the class per policy.  Occupancy
is counted in cost units, not entries, so a 100-member batch fills the
queue like 100 calls would — the server half of the batch-accounting
satellite.

Pure data structure: no clock, no threads and no lock of its own.  The
controller mutates it only while holding its lock; the unlocked reads
(``depth``, ``units``) are single attribute or ``len`` reads, so
diagnostics may see a value one operation stale but never a torn one.
Trivially deterministic and unit testable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, List, Optional

from repro.admission.policy import CLASS_NAMES

__all__ = ["QueuedItem", "AdmissionQueue"]


@dataclass(slots=True)
class QueuedItem:
    """One admitted-but-not-yet-dispatched request."""

    work: Any
    priority: int
    cost: int = 1
    #: Absolute expiry on the server clock, or None (no deadline).
    expires_at: Optional[float] = None
    #: Opaque per-item baggage (the endpoint keeps the reject callback
    #: here so an expired item can still answer its peer).
    extra: Any = None


class AdmissionQueue:
    """Priority-classed bounded queue, occupancy counted in cost units."""

    def __init__(self, capacity: int, lifo: bool = False):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.lifo = lifo
        self._classes: List[deque] = [deque() for _ in CLASS_NAMES]
        self._units = 0

    @property
    def units(self) -> int:
        """Queued cost units (the capacity-bounded quantity)."""
        return self._units

    @property
    def depth(self) -> int:
        """Queued entry count (diagnostics; capacity bounds units)."""
        return sum(map(len, self._classes))

    def depth_by_class(self) -> dict:
        return {CLASS_NAMES[i]: len(q) for i, q in enumerate(self._classes)}

    def offer(self, item: QueuedItem) -> bool:
        """Enqueue unless it would exceed capacity; False = rejected.

        A single item costing more than the whole capacity is only
        admitted into an *empty* queue — a batch bigger than the queue
        must not be permanently unadmittable, but must not evict
        standing work either.
        """
        if not 0 <= item.priority < len(self._classes):
            raise ValueError(f"unknown priority class {item.priority}")
        if item.cost < 1:
            raise ValueError("cost must be >= 1")
        if self._units + item.cost > self.capacity \
                and not (self._units == 0 and item.cost > self.capacity):
            return False
        self._classes[item.priority].append(item)
        self._units += item.cost
        return True

    def pop(self) -> Optional[QueuedItem]:
        """Dequeue from the most urgent non-empty class, or None."""
        for q in self._classes:
            if q:
                item = q.pop() if self.lifo else q.popleft()
                self._units -= item.cost
                return item
        return None

    def drain(self) -> List[QueuedItem]:
        """Remove and return everything queued (stop/shutdown path)."""
        items: List[QueuedItem] = []
        for q in self._classes:
            items.extend(q)
            q.clear()
        self._units = 0
        return items

    def __len__(self) -> int:
        return self.depth
