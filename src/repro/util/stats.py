"""Small online-statistics helpers.

Used by the load monitor (exponentially weighted load averages drive the
high-water-mark migration policy of §4.3) and by the benchmark harness
(mean/stddev of repeated bandwidth readings, as the paper averages "a large
number of readings").
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = ["OnlineStats", "EwmAverage"]


class OnlineStats:
    """Welford online mean/variance accumulator."""

    __slots__ = ("count", "mean", "_m2", "min", "max")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def extend(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(x)

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator); 0.0 for fewer than 2 points."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def __eq__(self, other) -> bool:
        """Value equality — two accumulators that saw the same samples
        compare equal, so results carrying them can be diffed across
        identically-seeded runs."""
        if not isinstance(other, OnlineStats):
            return NotImplemented
        return (self.count == other.count and self.mean == other.mean
                and self._m2 == other._m2 and self.min == other.min
                and self.max == other.max)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"OnlineStats(n={self.count}, mean={self.mean:.6g}, "
                f"sd={self.stddev:.6g})")


class EwmAverage:
    """Exponentially weighted moving average.

    ``alpha`` is the weight of a new sample; the load monitor uses a small
    alpha so short load spikes do not trigger spurious migrations.
    """

    __slots__ = ("alpha", "value", "_initialized")

    def __init__(self, alpha: float = 0.2, initial: float | None = None):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.value = 0.0 if initial is None else initial
        self._initialized = initial is not None

    def add(self, x: float) -> float:
        if not self._initialized:
            self.value = x
            self._initialized = True
        else:
            self.value += self.alpha * (x - self.value)
        return self.value

