"""ChaosRun: seeded fault-plan workloads with degradation curves.

The last mile of the resilience story: drive a deterministic
:class:`~repro.cluster.workload.SyntheticWorkload` through a phased
:class:`~repro.faults.plan.FaultPlan` on a simulated cluster, aggregate
every hook-bus event through a
:class:`~repro.metrics.recorder.MetricsRecorder`, and emit a
:class:`~repro.metrics.curves.DegradationCurve` — per-bucket goodput,
error rate, latency percentiles, and retry/hedge volume — that
:func:`~repro.metrics.curves.assert_degradation` can gate on.

Determinism contract: the workload script, the plan's draws, the
phase boundaries, and virtual time are all pure functions of their
seeds, so an identically-seeded run yields a bucket-for-bucket
identical curve, an identical metrics snapshot, and an equal
:class:`~repro.cluster.workload.WorkloadResult`.  That is asserted in
``tests/cluster/test_chaos.py`` and swept in
``benchmarks/bench_chaos_sweep.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.admission import AdmissionController, AdmissionPolicy, CLASS_NAMES
from repro.cluster.workload import SyntheticWorkload, WorkloadResult
from repro.core.instrumentation import GLOBAL_HOOKS, HookBus
from repro.faults.plan import FaultPlan
from repro.metrics.core import nearest_rank
from repro.metrics.curves import DegradationCurve
from repro.metrics.recorder import MetricsRecorder
from repro.security.prng import Pcg32
from repro.simnet.clock import VirtualClock

__all__ = ["ChaosRun", "ChaosReport", "OverloadPhase", "OverloadRun",
           "OverloadReport"]


@dataclass
class ChaosReport:
    """Everything one chaos run produced."""

    result: WorkloadResult
    curve: DegradationCurve
    metrics: dict
    recorder: MetricsRecorder = field(repr=False, compare=False,
                                      default=None)

    def to_dict(self) -> dict:
        """Plain-dict view (``==``-comparable across seeded runs)."""
        return {"result": self.result.to_dict(),
                "curve": self.curve.to_dicts(),
                "metrics": self.metrics}


class ChaosRun:
    """Drive a workload through a fault plan; measure the damage.

    ``bucket_seconds`` sets the curve resolution (virtual seconds under
    simulation).  The harness:

    * installs the plan on the simulator (``sim.fault_plan``) if it is
      not already there;
    * gives the plan a **private hook bus** when it would otherwise
      publish to ``GLOBAL_HOOKS`` (the GP publishes every event to the
      global bus *too*, so recording both would double-count);
    * attaches one :class:`MetricsRecorder` to every GP's bus (lazily,
      as the workload resolves them) plus the plan's bus, and detaches
      them all afterwards;
    * fires the plan's scheduled phases (:meth:`FaultPlan.apply_until`)
      as virtual time passes, before each request;
    * records invocation failures instead of raising
      (``on_error="record"``), so the error rate is data, not a crash.

    A :class:`ChaosRun` may be re-run, but only with a rewound plan:
    fault-plan rules and PRNG draws are consumed by traffic, so
    re-running a consumed plan would *not* reproduce the first run.
    :meth:`run` refuses (``ValueError``) until ``plan.reset()``.
    """

    def __init__(self, workload: SyntheticWorkload, plan: FaultPlan, *,
                 bucket_seconds: float = 1.0,
                 recorder: Optional[MetricsRecorder] = None):
        self.workload = workload
        self.plan = plan
        self.bucket_seconds = bucket_seconds
        self._recorder = recorder

    def run(self, clients: List[dict], sim, *,
            resolve: Optional[Callable] = None,
            rebalance_every: int = 0,
            rebalance: Optional[Callable[[], list]] = None
            ) -> ChaosReport:
        """Execute the workload under the plan; return the report."""
        if self.plan.consumed:
            raise ValueError(
                "FaultPlan already consumed by a previous run; call "
                "plan.reset() to rewind it before re-running")
        if getattr(sim, "fault_plan", None) is not self.plan:
            sim.fault_plan = self.plan
        if self.plan.hooks is GLOBAL_HOOKS:
            self.plan.hooks = HookBus()
        recorder = self._recorder
        if recorder is None:
            recorder = MetricsRecorder(clock=sim.clock,
                                       bucket_seconds=self.bucket_seconds)
        attached: Dict[int, HookBus] = {}

        def watch(bus: HookBus) -> None:
            if id(bus) not in attached:
                recorder.attach(bus)
                attached[id(bus)] = bus

        watch(self.plan.hooks)
        if resolve is None:
            for table in clients:
                for gp in table.values():
                    watch(gp.hooks)
            inner_resolve = None
        else:
            def inner_resolve(ci, name):
                gp = resolve(ci, name)
                watch(gp.hooks)
                return gp

        t_start = sim.clock.now()
        self.plan.apply_until(t_start)

        def tick(i: int, req) -> None:
            self.plan.apply_until(sim.clock.now())

        try:
            result = self.workload.run(
                clients, sim, resolve=inner_resolve,
                rebalance_every=rebalance_every, rebalance=rebalance,
                before_request=tick, on_error="record")
        finally:
            for bus in attached.values():
                recorder.detach(bus)
        t_end = sim.clock.now()
        curve = DegradationCurve.from_recorder(
            recorder, t_start=t_start, t_end=t_end)
        return ChaosReport(result=result, curve=curve,
                           metrics=recorder.snapshot(), recorder=recorder)


# ---------------------------------------------------------------------------
# Overload runs: seeded open-loop load against the admission layer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverloadPhase:
    """One span of offered load.

    ``rate`` is the open-loop arrival rate (requests per virtual
    second) sustained for ``duration`` seconds; ``mix`` is the
    admission-class probability vector (interactive, batch,
    best-effort).  Open-loop on purpose: clients that do not slow down
    when the server does are exactly the regime admission control
    exists for.
    """

    duration: float
    rate: float
    mix: tuple = (0.6, 0.3, 0.1)

    def __post_init__(self):
        if self.duration <= 0 or self.rate <= 0:
            raise ValueError("phase duration and rate must be positive")
        if len(self.mix) != 3 or abs(sum(self.mix) - 1.0) > 1e-9:
            raise ValueError("mix must be 3 class probabilities summing "
                             "to 1")


@dataclass
class OverloadReport:
    """Everything one overload run produced (seed-deterministic)."""

    offered: int
    completed: int
    timely: int                 #: completions within their deadline
    shed: int
    shed_by_reason: Dict[str, int]
    duration: float
    goodput: float              #: timely completions per virtual second
    latency_by_class: Dict[str, dict]
    buckets: List[dict]         #: per-bucket {offered, timely, shed}
    admission: Optional[dict]   #: controller snapshot (None = baseline)
    metrics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Plain-dict view (``==``-comparable across seeded runs)."""
        return {"offered": self.offered, "completed": self.completed,
                "timely": self.timely, "shed": self.shed,
                "shed_by_reason": dict(self.shed_by_reason),
                "duration": self.duration, "goodput": self.goodput,
                "latency_by_class": {k: dict(v) for k, v
                                     in self.latency_by_class.items()},
                "buckets": [dict(b) for b in self.buckets],
                "admission": self.admission,
                "metrics": self.metrics}


class _Arrival:
    """One offered request in an overload run."""

    __slots__ = ("at", "priority", "expires_at")

    def __init__(self, at: float, priority: int, expires_at: float):
        self.at = at
        self.priority = priority
        self.expires_at = expires_at


class OverloadRun:
    """Seeded open-loop load against the *real* admission controller.

    A discrete-event simulation in virtual time: Poisson arrivals
    (seeded :class:`~repro.security.prng.Pcg32` draws) are offered to
    an :class:`~repro.admission.AdmissionController` exactly as an
    endpoint would offer them — ``classify``-costed, deadline-stamped,
    drawn through ``try_pop`` under the adaptive concurrency limiter,
    completions fed back through ``finish``.  Service takes
    ``service_time`` virtual seconds per request on one of the
    limiter-granted slots.

    ``policy=None`` runs the no-admission baseline instead: a fixed
    worker pool (``baseline_workers``) fed by an unbounded FIFO — the
    pre-admission endpoint, whose queue under sustained overload grows
    without bound until every completion is far past its deadline.
    ``goodput`` (timely completions per second) is therefore the
    honest comparison: the baseline still *completes* requests at
    capacity, but completes them too late to count.

    Determinism: arrivals, class draws, queue/limiter decisions, and
    virtual time are pure functions of ``seed`` and the phase list, so
    identically-seeded runs return ``==``-equal ``to_dict()``s.
    """

    def __init__(self, *, policy: Optional[AdmissionPolicy] = None,
                 seed: int = 0, service_time: float = 0.008,
                 deadline: Optional[float] = 0.25,
                 baseline_workers: int = 16,
                 bucket_seconds: float = 1.0):
        if service_time <= 0:
            raise ValueError("service_time must be positive")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive")
        if baseline_workers < 1:
            raise ValueError("baseline_workers must be >= 1")
        self.policy = policy
        self.seed = seed
        self.service_time = service_time
        self.deadline = deadline
        self.baseline_workers = baseline_workers
        self.bucket_seconds = bucket_seconds

    # -- arrival schedule ---------------------------------------------------

    def _arrivals(self, phases: List[OverloadPhase]) -> List[_Arrival]:
        gaps = Pcg32(self.seed, stream=0x0AD1)
        classes = Pcg32(self.seed, stream=0x0AD2)
        arrivals: List[_Arrival] = []
        t = 0.0
        phase_end = 0.0
        for phase in phases:
            phase_end += phase.duration
            while True:
                t += float(gaps.expovariate(phase.rate))
                if t >= phase_end:
                    t = phase_end  # next phase's gaps start here
                    break
                draw = float(classes.uniform())
                priority = 0 if draw < phase.mix[0] else \
                    1 if draw < phase.mix[0] + phase.mix[1] else 2
                expires = float("inf") if self.deadline is None \
                    else t + self.deadline
                arrivals.append(_Arrival(t, priority, expires))
        return arrivals

    # -- the event loop -----------------------------------------------------

    def run(self, phases: List[OverloadPhase]) -> OverloadReport:
        """Simulate the phases; returns the (deterministic) report."""
        if not phases:
            raise ValueError("need at least one OverloadPhase")
        arrivals = self._arrivals(phases)
        horizon = sum(p.duration for p in phases)
        clock = VirtualClock()
        bus = HookBus()
        recorder = MetricsRecorder(clock=clock,
                                   bucket_seconds=self.bucket_seconds)
        recorder.attach(bus)
        controller = None
        if self.policy is not None:
            controller = AdmissionController(self.policy, clock=clock,
                                             hooks=bus)
        fifo: List = []            # baseline's unbounded queue
        busy = 0                   # baseline's occupied workers
        shed_by_reason: Dict[str, int] = {}
        latencies: Dict[int, List[float]] = {0: [], 1: [], 2: []}
        completed = timely = shed = 0
        buckets: Dict[int, dict] = {}
        #: (completion time, sequence, started at, arrival-like)
        running: List[tuple] = []
        seq = 0

        def bucket(at: float) -> dict:
            key = int(at / self.bucket_seconds)
            b = buckets.get(key)
            if b is None:
                b = {"bucket": key, "offered": 0, "timely": 0, "shed": 0}
                buckets[key] = b
            return b

        def note_shed(arrival: _Arrival, reason: str) -> None:
            nonlocal shed
            shed += 1
            shed_by_reason[reason] = shed_by_reason.get(reason, 0) + 1
            bucket(clock.now())["shed"] += 1

        def start_admitted() -> None:
            nonlocal seq
            if controller is not None:
                while True:
                    item = controller.try_pop()
                    if item is None:
                        break
                    seq += 1
                    heapq.heappush(running, (
                        clock.now() + self.service_time, seq,
                        clock.now(), item))
            else:
                nonlocal busy
                while busy < self.baseline_workers and fifo:
                    arrival = fifo.pop(0)
                    busy += 1
                    seq += 1
                    heapq.heappush(running, (
                        clock.now() + self.service_time, seq,
                        clock.now(), arrival))

        def complete(done_at: float, started: float, work) -> None:
            nonlocal completed, timely, busy
            if controller is not None:
                item = work
                arrival = item.work
                controller.finish(item, done_at - started)
            else:
                arrival = work
                busy -= 1
            completed += 1
            latency = done_at - arrival.at
            latencies[arrival.priority].append(latency)
            if done_at <= arrival.expires_at:
                timely += 1
                bucket(done_at)["timely"] += 1

        i = 0
        while i < len(arrivals) or running:
            next_arrival = arrivals[i].at if i < len(arrivals) \
                else float("inf")
            next_done = running[0][0] if running else float("inf")
            if next_arrival <= next_done:
                arrival = arrivals[i]
                i += 1
                clock.advance_to(arrival.at)
                bucket(arrival.at)["offered"] += 1
                if controller is not None:
                    remaining = None if self.deadline is None \
                        else arrival.expires_at - clock.now()
                    controller.submit(
                        arrival, priority=arrival.priority,
                        deadline_remaining=remaining, cost=1,
                        reject=lambda _ra, reason, a=arrival:
                            note_shed(a, reason))
                else:
                    fifo.append(arrival)
            else:
                done_at, _seq, started, work = heapq.heappop(running)
                clock.advance_to(done_at)
                complete(done_at, started, work)
            start_admitted()
        clock.advance_to(horizon)
        recorder.detach(bus)

        by_class = {}
        for priority, values in latencies.items():
            values.sort()
            by_class[CLASS_NAMES[priority]] = {
                "count": len(values),
                "p50": nearest_rank(values, 0.50) if values else None,
                "p99": nearest_rank(values, 0.99) if values else None,
            }
        return OverloadReport(
            offered=len(arrivals), completed=completed, timely=timely,
            shed=shed, shed_by_reason=shed_by_reason, duration=horizon,
            goodput=timely / horizon if horizon else 0.0,
            latency_by_class=by_class,
            buckets=[buckets[k] for k in sorted(buckets)],
            admission=None if controller is None
            else controller.snapshot(),
            metrics=recorder.snapshot())
