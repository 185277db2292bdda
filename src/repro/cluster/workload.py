"""Deterministic synthetic workloads over a simulated cluster.

A :class:`SyntheticWorkload` generates a reproducible request program —
which client hits which object with what payload, with exponential think
times — and executes it in virtual time, recording per-request latency.
Periodic hooks (every ``rebalance_every`` requests) let an experiment
interleave load-balancing passes with traffic, which is how the ABL-LB
benchmark compares balanced vs static placements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.gp import GlobalPointer
from repro.exceptions import HpcError
from repro.metrics.core import nearest_rank
from repro.security.prng import Pcg32
from repro.util.stats import OnlineStats

__all__ = ["RequestSpec", "WorkloadResult", "SyntheticWorkload",
           "BatchedSyntheticWorkload"]


@dataclass(frozen=True)
class RequestSpec:
    """One scripted request."""

    client_index: int
    object_name: str
    payload_bytes: int
    think_seconds: float


@dataclass
class WorkloadResult:
    """Aggregate outcome of a workload run (virtual time).

    A fresh result is built by every :meth:`SyntheticWorkload.run` call
    (reusing one workload instance is safe — nothing accumulates across
    runs), and two results from identically-seeded runs compare equal
    with ``==``.  ``latencies`` covers *successful* requests only;
    failed ones (``on_error="record"``) are counted in :attr:`errors`.
    """

    latencies: OnlineStats = field(default_factory=OnlineStats)
    per_object_requests: Dict[str, int] = field(default_factory=dict)
    makespan: float = 0.0
    migrations: int = 0
    errors: int = 0
    _raw: List[float] = field(default_factory=list)

    @property
    def mean_latency(self) -> float:
        return self.latencies.mean

    @property
    def ok(self) -> int:
        """Successful request count."""
        return self.latencies.count

    def latency_percentile(self, q: float) -> float:
        """Nearest-rank ``q``-quantile (``q`` in [0, 1]) of the
        successful requests' latencies."""
        return nearest_rank(sorted(self._raw), q)

    def to_dict(self) -> dict:
        """Plain-dict summary (serializable, ``==``-comparable)."""
        has_lat = bool(self._raw)
        ordered = sorted(self._raw)
        return {
            "ok": self.ok,
            "errors": self.errors,
            "makespan": self.makespan,
            "migrations": self.migrations,
            "mean_latency": self.mean_latency if has_lat else None,
            "p50": nearest_rank(ordered, 0.50) if has_lat else None,
            "p99": nearest_rank(ordered, 0.99) if has_lat else None,
            "per_object_requests": dict(self.per_object_requests),
        }


class SyntheticWorkload:
    """Scripted request stream with optional hotspot skew.

    ``hotspot_fraction`` of requests go to ``hot_objects`` (the rest are
    spread uniformly), reproducing the skewed access patterns that make
    load balancing matter.
    """

    def __init__(self, *, seed: int = 1, n_requests: int = 200,
                 object_names: List[str],
                 hot_objects: Optional[List[str]] = None,
                 hotspot_fraction: float = 0.8,
                 payload_bytes: int = 8192,
                 mean_think_seconds: float = 0.002):
        if not object_names:
            raise ValueError("workload needs at least one object")
        if not 0.0 <= hotspot_fraction <= 1.0:
            raise ValueError("hotspot_fraction must be in [0, 1]")
        self.object_names = list(object_names)
        self.hot_objects = list(hot_objects or object_names[:1])
        self.hotspot_fraction = hotspot_fraction
        self.payload_bytes = payload_bytes
        self.mean_think = mean_think_seconds
        self.n_requests = n_requests
        self.seed = seed

    def script(self, n_clients: int) -> List[RequestSpec]:
        """The deterministic request program for ``n_clients`` clients."""
        rng = Pcg32(self.seed)
        out = []
        for _ in range(self.n_requests):
            if rng.uniform() < self.hotspot_fraction:
                obj = rng.choice(self.hot_objects)
            else:
                obj = rng.choice(self.object_names)
            out.append(RequestSpec(
                client_index=rng.randint(0, n_clients - 1),
                object_name=obj,
                payload_bytes=self.payload_bytes,
                think_seconds=rng.expovariate(1.0 / self.mean_think)
                if self.mean_think > 0 else 0.0,
            ))
        return out

    def run(self, clients: List[GlobalPointer | dict], sim,
            *, resolve: Optional[Callable[[int, str], GlobalPointer]]
            = None,
            rebalance_every: int = 0,
            rebalance: Optional[Callable[[], list]] = None,
            before_request: Optional[Callable[[int, RequestSpec], None]]
            = None,
            on_error: str = "raise") -> WorkloadResult:
        """Execute the program in virtual time.

        ``clients`` is either a list of ``{object name: GP}`` dicts (one
        per client) or ``resolve(client_index, object_name)`` is given.

        ``before_request(i, spec)`` (1-based ``i``) runs after the
        request's think time has elapsed but before it is issued — the
        chaos harness uses it to fire scheduled fault-plan phases at
        the right virtual instant.  ``on_error`` is ``"raise"``
        (default: the first invocation failure propagates) or
        ``"record"`` (failures are counted in ``result.errors`` and the
        run carries on — how a chaos run measures error rate instead of
        dying at the first injected fault).

        Every call builds and returns a **fresh** :class:`WorkloadResult`;
        a workload instance may be reused and re-run freely.
        """
        if on_error not in ("raise", "record"):
            raise ValueError('on_error must be "raise" or "record"')
        if resolve is None:
            tables = clients

            def resolve(ci, name):  # noqa: F811 - intentional closure
                return tables[ci][name]

        result = WorkloadResult()
        start = sim.clock.now()
        payload = np.arange(self.payload_bytes, dtype=np.uint8)
        for i, req in enumerate(self.script(len(clients) or 1), start=1):
            sim.clock.advance(req.think_seconds)
            if before_request is not None:
                before_request(i, req)
            gp = resolve(req.client_index, req.object_name)
            t0 = sim.clock.now()
            try:
                gp.invoke("process", payload[: req.payload_bytes])
            except HpcError:
                if on_error == "raise":
                    raise
                result.errors += 1
            else:
                latency = sim.clock.now() - t0
                result.latencies.add(latency)
                result._raw.append(latency)
            result.per_object_requests[req.object_name] = \
                result.per_object_requests.get(req.object_name, 0) + 1
            if rebalance_every and rebalance is not None \
                    and i % rebalance_every == 0:
                result.migrations += len(rebalance())
        result.makespan = sim.clock.now() - start
        return result


class BatchedSyntheticWorkload(SyntheticWorkload):
    """The same scripted program, issued through explicit
    :meth:`~repro.core.gp.GlobalPointer.batch` scopes.

    Consecutive requests are grouped into windows of ``batch_size``; all
    requests in a window aimed at the same GP share one scope and hence
    (up to the policy's caps) one wire batch.  Transparent coalescing is
    wall-clock-only, so explicit scopes are how simulated-world runs —
    seeded benchmarks and chaos regressions — exercise batching while
    staying deterministic.  Think times, ``before_request`` hooks, and
    per-object accounting match the unbatched driver request for
    request; only the wire traffic is aggregated.
    """

    def __init__(self, *, batch_size: int = 4, **kwargs):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        super().__init__(**kwargs)
        self.batch_size = batch_size

    def run(self, clients: List[GlobalPointer | dict], sim,
            *, resolve: Optional[Callable[[int, str], GlobalPointer]]
            = None,
            rebalance_every: int = 0,
            rebalance: Optional[Callable[[], list]] = None,
            before_request: Optional[Callable[[int, RequestSpec], None]]
            = None,
            on_error: str = "raise") -> WorkloadResult:
        """Execute the program in windows of ``batch_size`` batched
        calls (same contract as :meth:`SyntheticWorkload.run`)."""
        if on_error not in ("raise", "record"):
            raise ValueError('on_error must be "raise" or "record"')
        if resolve is None:
            tables = clients

            def resolve(ci, name):  # noqa: F811 - intentional closure
                return tables[ci][name]

        result = WorkloadResult()
        start = sim.clock.now()
        payload = np.arange(self.payload_bytes, dtype=np.uint8)
        script = self.script(len(clients) or 1)
        for base in range(0, len(script), self.batch_size):
            window = script[base:base + self.batch_size]
            scopes: Dict[int, object] = {}
            members = []
            for i, req in enumerate(window, start=base + 1):
                sim.clock.advance(req.think_seconds)
                if before_request is not None:
                    before_request(i, req)
                gp = resolve(req.client_index, req.object_name)
                scope = scopes.get(id(gp))
                if scope is None:
                    scope = scopes[id(gp)] = gp.batch()
                future = scope.invoke("process",
                                      payload[: req.payload_bytes])
                members.append((i, req, future, sim.clock.now()))
            for scope in scopes.values():
                scope.flush()
            for i, req, future, t0 in members:
                try:
                    future.result()
                except HpcError:
                    if on_error == "raise":
                        raise
                    result.errors += 1
                else:
                    latency = sim.clock.now() - t0
                    result.latencies.add(latency)
                    result._raw.append(latency)
                result.per_object_requests[req.object_name] = \
                    result.per_object_requests.get(req.object_name, 0) + 1
                if rebalance_every and rebalance is not None \
                        and i % rebalance_every == 0:
                    result.migrations += len(rebalance())
        result.makespan = sim.clock.now() - start
        return result
