"""AdmissionController: shed decisions, deadlines, batch costing,
runtime policy swap, stop-drain, the disabled policy's values, and
worker wake-ups."""

import sys
import threading

from repro.admission import (
    BATCH,
    INTERACTIVE,
    AdmissionController,
    AdmissionPolicy,
)
from repro.core.instrumentation import HookBus
from repro.serialization.marshal import BatchRequest
from repro.simnet.clock import VirtualClock


def make(capacity=4, **kw):
    policy = AdmissionPolicy(enabled=True, queue_capacity=capacity, **kw)
    bus = HookBus()
    events = []
    for kind in ("admit", "shed", "limit_change"):
        bus.on(kind, lambda e: events.append((e.kind, e.data)))
    clock = VirtualClock()
    return AdmissionController(policy, clock=clock, hooks=bus), clock, events


class Reject:
    def __init__(self):
        self.calls = []

    def __call__(self, retry_after, reason):
        self.calls.append((retry_after, reason))


class TestSubmit:
    def test_admit_emits_event(self):
        ctrl, _clock, events = make()
        assert ctrl.submit("w", priority=INTERACTIVE)
        assert ctrl.admitted == 1
        kinds = [k for k, _ in events]
        assert kinds == ["admit"]
        assert events[0][1]["depth"] == 1

    def test_queue_full_sheds_with_scaled_retry_after(self):
        ctrl, _clock, events = make(capacity=2, retry_after=0.05)
        reject = Reject()
        assert ctrl.submit("a") and ctrl.submit("b")
        assert not ctrl.submit("c", reject=reject)
        assert ctrl.shed == 1
        (retry_after, reason), = reject.calls
        assert reason == "queue_full"
        # full queue: hint is retry_after * (1 + fill) = 0.05 * 2
        assert retry_after == 0.1
        assert events[-1][0] == "shed"
        assert events[-1][1]["reason"] == "queue_full"

    def test_expired_budget_sheds_on_offer(self):
        ctrl, _clock, _events = make()
        reject = Reject()
        assert not ctrl.submit("w", deadline_remaining=0.0, reject=reject)
        assert reject.calls == [(0.0, "deadline")]

    def test_budget_expiring_in_queue_sheds_on_pop(self):
        ctrl, clock, _events = make()
        reject = Reject()
        assert ctrl.submit("late", deadline_remaining=0.5, reject=reject)
        ctrl.submit("fresh", priority=BATCH)
        clock.advance(1.0)
        item = ctrl.try_pop()          # expired head shed, next served
        assert item.work == "fresh"
        assert reject.calls == [(0.0, "deadline")]
        # the shed returned its limiter slot
        ctrl.finish(item, 0.01)
        assert ctrl.limiter.inflight == 0

    def test_pop_respects_limiter(self):
        ctrl, _clock, _events = make(max_limit=1, initial_limit=1)
        ctrl.submit("a")
        ctrl.submit("b")
        first = ctrl.try_pop()
        assert first is not None
        assert ctrl.try_pop() is None          # limit 1: no second slot
        ctrl.finish(first, 0.01)
        assert ctrl.try_pop() is not None


class TestBatchCosting:
    def test_batch_counted_as_member_units(self):
        ctrl, _clock, _events = make(capacity=8)
        payload = BatchRequest.of([b"x"] * 5).to_bytes()
        assert ctrl.classify("hpc.invoke.batch", payload) == 5

    def test_glue_batch_flat_cost(self):
        ctrl, _clock, _events = make(opaque_batch_cost=7)
        assert ctrl.classify("hpc.glue.batch", b"\x00opaque") == 7

    def test_plain_call_is_one_unit(self):
        ctrl, _clock, _events = make()
        assert ctrl.classify("echo", b"whatever") == 1

    def test_batch_shed_atomically_with_one_pushback(self):
        """A 5-member batch against 2 free units: one offer, one shed
        event, one reject — members never straddle the decision."""
        ctrl, _clock, events = make(capacity=4)
        ctrl.submit("standing", cost=2)
        reject = Reject()
        payload = BatchRequest.of([b"x"] * 5).to_bytes()
        cost = ctrl.classify("hpc.invoke.batch", payload)
        assert not ctrl.submit("batch", cost=cost, reject=reject)
        assert len(reject.calls) == 1
        assert [k for k, _ in events].count("shed") == 1
        assert events[-1][1]["cost"] == 5


class TestPolicySwap:
    def test_queued_work_survives_a_swap(self):
        ctrl, _clock, _events = make(capacity=4)
        ctrl.submit("a")
        ctrl.submit("b", priority=BATCH)
        ctrl.set_policy(AdmissionPolicy(enabled=True, queue_capacity=8))
        assert ctrl.queue.depth == 2
        assert ctrl.try_pop().work == "a"

    def test_shrinking_swap_sheds_overflow_with_pushback(self):
        ctrl, _clock, _events = make(capacity=4)
        rejects = [Reject() for _ in range(4)]
        for i, r in enumerate(rejects):
            ctrl.submit(i, priority=BATCH, reject=r)
        ctrl.set_policy(AdmissionPolicy(enabled=True, queue_capacity=2))
        assert ctrl.queue.units == 2
        shed_reasons = [r.calls[0][1] for r in rejects if r.calls]
        assert shed_reasons == ["queue_full"] * 2


class TestStop:
    def test_stop_sheds_queue_and_refuses_new_offers(self):
        ctrl, _clock, events = make()
        rejects = [Reject(), Reject()]
        ctrl.submit("a", reject=rejects[0])
        ctrl.submit("b", reject=rejects[1])
        assert ctrl.stop() == 2
        for r in rejects:
            assert r.calls[0][1] == "stopping"
        late = Reject()
        assert not ctrl.submit("late", reject=late)
        assert late.calls[0][1] == "stopping"
        reasons = [d["reason"] for k, d in events if k == "shed"]
        assert reasons == ["stopping"] * 3

    def test_snapshot_shape(self):
        ctrl, _clock, _events = make()
        ctrl.submit("a")
        snap = ctrl.snapshot()
        assert snap["enabled"] and snap["queue_depth"] == 1
        assert snap["admitted"] == 1 and snap["shed"] == 0
        assert "limit" in snap and "inflight" in snap


class TestDisabledPolicy:
    """``enabled=False`` is a choice of values, not a bypass."""

    def test_queue_is_unbounded(self):
        ctrl = AdmissionController(AdmissionPolicy(queue_capacity=2),
                                   hooks=HookBus())
        assert all(ctrl.submit(i) for i in range(100))
        assert ctrl.queue.depth == 100 and ctrl.shed == 0

    def test_limit_pinned_at_max_limit(self):
        bus = HookBus()
        changes = []
        bus.on("limit_change", changes.append)
        ctrl = AdmissionController(
            AdmissionPolicy(max_limit=3, initial_limit=1, window=2),
            clock=VirtualClock(), hooks=bus)
        assert ctrl.limiter.limit == 3
        for latency in [0.001] * 4 + [1.0] * 8:   # healthy, then inflated
            ctrl.submit("w")
            ctrl.finish(ctrl.try_pop(), latency)
        assert ctrl.limiter.limit == 3 and changes == []

    def test_swap_to_enabled_bounds_the_queue(self):
        ctrl = AdmissionController(AdmissionPolicy(), hooks=HookBus())
        ctrl.set_policy(AdmissionPolicy(enabled=True, queue_capacity=1))
        assert ctrl.submit("a") and not ctrl.submit("b")


class TestWakeUp:
    def test_freed_slot_wakes_a_blocked_pop(self):
        """A worker that found work queued but no slot waits; the
        completion that frees a slot must wake it."""
        ctrl, _clock, _events = make(max_limit=1, initial_limit=1)
        ctrl.submit("first")
        running = ctrl.pop(timeout=0)
        ctrl.submit("second")
        refused = threading.Event()
        try_acquire = ctrl.limiter.try_acquire

        def spy():
            granted = try_acquire()
            if not granted:
                refused.set()      # the waiter holds the lock now
            return granted

        ctrl.limiter.try_acquire = spy
        got = []
        woke = threading.Event()

        def waiter():
            got.append(ctrl.pop(timeout=30.0))
            woke.set()

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        assert refused.wait(10.0)
        # finish() takes the controller's lock, so it runs only once the
        # waiter has parked and released it.
        ctrl.finish(running, 0.01)
        assert woke.wait(10.0)
        thread.join(10.0)
        assert got[0].work == "second"


class TestConcurrentUse:
    def test_counts_hold_under_contention(self):
        """Queue and limiter have no locks of their own; the controller's
        lock guards them.  Producers and more workers than cores
        hammer one controller with a tiny switch interval: a lost update
        would leave units or in-flight slots behind, or run more than
        ``max_limit`` dispatches at once."""
        producers, per_producer, workers = 3, 400, 6
        ctrl = AdmissionController(AdmissionPolicy(max_limit=2),
                                   hooks=HookBus())
        produced = threading.Event()
        lock = threading.Lock()
        served, running, peak = [], [0], [0]

        def produce():
            for i in range(per_producer):
                ctrl.submit(i)

        def work():
            while True:
                item = ctrl.pop(timeout=0.01)
                if item is None:
                    if produced.is_set() and not ctrl.queue.units:
                        return
                    continue
                with lock:
                    running[0] += 1
                    peak[0] = max(peak[0], running[0])
                with lock:
                    running[0] -= 1
                    served.append(item.work)
                ctrl.finish(item, 0.001)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=work) for _ in range(workers)]
            feeders = [threading.Thread(target=produce)
                       for _ in range(producers)]
            for thread in pool + feeders:
                thread.start()
            for thread in feeders:
                thread.join(30.0)
            produced.set()
            for thread in pool:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in pool + feeders)
        assert len(served) == producers * per_producer
        assert ctrl.admitted == producers * per_producer
        assert ctrl.queue.units == 0 and ctrl.queue.depth == 0
        assert ctrl.limiter.inflight == 0
        assert peak[0] <= 2
