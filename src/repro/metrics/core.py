"""Metric instruments: counters, gauges, histograms, bucketed series.

Four instrument shapes cover everything the hook bus can tell us:

* :class:`Counter` — a monotonically increasing total (requests served,
  retries paid, faults injected);
* :class:`Gauge` — a value that goes both ways (breakers currently
  open);
* :class:`Histogram` — a value distribution answered with nearest-rank
  quantiles (request latency), the same :func:`nearest_rank` the
  hedging latency windows of :class:`~repro.core.peers.PeerTable` use;
* :class:`TimeSeries` — per-time-bucket sub-histograms keyed on a
  :class:`~repro.util.timing.TimeSource`, the substrate degradation
  curves are built from.

A :class:`MetricsRegistry` names and owns instruments and exports one
**plain-dict snapshot** of everything — no live objects, so a snapshot
can be compared with ``==``, serialized, or diffed across runs.

Determinism: instruments never read a clock themselves except through
the registry's :class:`~repro.util.timing.TimeSource`, and they contain
no randomness.  Under a :class:`~repro.simnet.clock.VirtualClock` the
same event sequence therefore produces a bit-for-bit identical
snapshot, which is what lets chaos tests assert whole degradation
curves by equality.

All instruments are thread-safe (hook handlers fire from
``invoke_async`` worker threads under the wall-clock ORB).
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional

from repro.util.timing import TimeSource, time_source

__all__ = ["Counter", "Gauge", "Histogram", "TimeSeries",
           "MetricsRegistry", "nearest_rank"]


def nearest_rank(sorted_values: List[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``q`` in [0, 1]) of sorted values."""
    if not sorted_values:
        raise ValueError("quantile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    index = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return float(sorted_values[index])


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> float:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self._value:g})"


class Gauge:
    """A value that can move both ways."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> float:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name}={self._value:g})"


class _Distribution:
    """Shared accumulation for histograms and series buckets."""

    __slots__ = ("count", "total", "min", "max", "_values")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._values: List[float] = []

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._values.append(value)

    def quantile(self, q: float) -> Optional[float]:
        if not self._values:
            return None
        return nearest_rank(sorted(self._values), q)

    def snapshot(self, quantiles=(0.5, 0.99)) -> dict:
        if self.count == 0:
            out = {"count": 0, "sum": 0.0, "mean": None,
                   "min": None, "max": None}
            out.update({_qkey(q): None for q in quantiles})
            return out
        ordered = sorted(self._values)
        out = {"count": self.count, "sum": self.total,
               "mean": self.total / self.count,
               "min": self.min, "max": self.max}
        out.update({_qkey(q): nearest_rank(ordered, q)
                    for q in quantiles})
        return out


def _qkey(q: float) -> str:
    """0.5 -> "p50", 0.99 -> "p99", 0.999 -> "p99.9"."""
    pct = q * 100.0
    if pct == int(pct):
        return f"p{int(pct)}"
    return f"p{pct:g}"


class Histogram:
    """A value distribution with nearest-rank quantiles.

    Keeps every observation (chaos runs are bounded; a long-lived
    deployment would cap this — see ``max_samples``).  When the cap is
    hit the *oldest* half is discarded, keeping tails recent.
    """

    __slots__ = ("name", "quantiles", "max_samples", "_dist", "_lock")

    def __init__(self, name: str, quantiles=(0.5, 0.99),
                 max_samples: int = 100_000):
        self.name = name
        self.quantiles = tuple(quantiles)
        self.max_samples = max_samples
        self._dist = _Distribution()
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._dist.observe(value)
            if len(self._dist._values) > self.max_samples:
                del self._dist._values[: self.max_samples // 2]

    @property
    def count(self) -> int:
        return self._dist.count

    def quantile(self, q: float) -> Optional[float]:
        with self._lock:
            return self._dist.quantile(q)

    def snapshot(self) -> dict:
        with self._lock:
            return self._dist.snapshot(self.quantiles)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name}, n={self._dist.count})"


class TimeSeries:
    """Per-time-bucket distributions on a :class:`TimeSource`.

    Every observation lands in bucket ``int(clock.now() //
    bucket_seconds)``; each bucket is a tiny histogram.  The snapshot
    is a list of per-bucket dicts ordered by bucket index — exactly the
    shape a degradation curve wants.
    """

    __slots__ = ("name", "clock", "bucket_seconds", "quantiles",
                 "_buckets", "_lock")

    def __init__(self, name: str, clock: TimeSource,
                 bucket_seconds: float = 1.0, quantiles=(0.5, 0.99)):
        if bucket_seconds <= 0:
            raise ValueError("bucket_seconds must be positive")
        self.name = name
        self.clock = clock
        self.bucket_seconds = bucket_seconds
        self.quantiles = tuple(quantiles)
        self._buckets: Dict[int, _Distribution] = {}
        self._lock = threading.Lock()

    def bucket_index(self, at: Optional[float] = None) -> int:
        at = self.clock.now() if at is None else at
        return int(at // self.bucket_seconds)

    def observe(self, value: float = 1.0,
                at: Optional[float] = None) -> None:
        index = self.bucket_index(at)
        with self._lock:
            dist = self._buckets.get(index)
            if dist is None:
                dist = _Distribution()
                self._buckets[index] = dist
            dist.observe(value)

    def bucket(self, index: int) -> Optional[dict]:
        with self._lock:
            dist = self._buckets.get(index)
            return None if dist is None else dist.snapshot(self.quantiles)

    def snapshot(self) -> List[dict]:
        with self._lock:
            indexes = sorted(self._buckets)
            out = []
            for index in indexes:
                entry = {"bucket": index,
                         "start": index * self.bucket_seconds}
                entry.update(self._buckets[index].snapshot(self.quantiles))
                out.append(entry)
            return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TimeSeries({self.name}, buckets={len(self._buckets)}, "
                f"dt={self.bucket_seconds})")


class MetricsRegistry:
    """Named instruments + one plain-dict snapshot of everything.

    ``clock`` defaults to a shared monotonic wall clock; pass the
    owning context's clock (``ctx.clock``) — or any object that *has* a
    clock, via :func:`~repro.util.timing.time_source` — so series stay
    deterministic under simulation.
    """

    def __init__(self, clock: Optional[TimeSource] = None,
                 bucket_seconds: float = 1.0, quantiles=(0.5, 0.99)):
        self.clock = clock if clock is not None else time_source(None)
        self.bucket_seconds = bucket_seconds
        self.quantiles = tuple(quantiles)
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, TimeSeries] = {}
        self._lock = threading.Lock()

    # -- create-or-get ----------------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(name)
            return inst

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge(name)
            return inst

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = Histogram(
                    name, quantiles=self.quantiles)
            return inst

    def series(self, name: str) -> TimeSeries:
        with self._lock:
            inst = self._series.get(name)
            if inst is None:
                inst = self._series[name] = TimeSeries(
                    name, self.clock, self.bucket_seconds,
                    quantiles=self.quantiles)
            return inst

    # -- export -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything, as plain dicts/lists/numbers (``==``-comparable)."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            series = dict(self._series)
        return {
            "counters": {n: c.snapshot() for n, c in sorted(counters.items())},
            "gauges": {n: g.snapshot() for n, g in sorted(gauges.items())},
            "histograms": {n: h.snapshot()
                           for n, h in sorted(histograms.items())},
            "series": {n: s.snapshot() for n, s in sorted(series.items())},
        }

    def reset(self) -> None:
        """Drop every instrument (names are re-created on next use)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._series.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)}, "
                f"series={len(self._series)})")
