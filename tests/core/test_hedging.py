"""Hedged requests under the deterministic simulator.

The acceptance scenario: with a seeded slow-link FaultPlan, the p99
latency of retry-safe calls *improves* when hedging is enabled — and the
whole run is bit-for-bit reproducible from the seed.
"""

import pytest

from repro.core import ORB
from repro.core import peers as peers_module
from repro.core.instrumentation import HookBus
from repro.core.peers import PeerTable
from repro.core.resilience import HedgePolicy
from repro.faults import FaultPlan
from repro.simnet import NetworkSimulator, paper_testbed
from repro.simnet.clock import VirtualClock

from tests.core.conftest import Counter
from tests.core.test_resilience import Register

#: The ``(peer, proto)`` latency window the unit tests feed.
KEY = ("peer", "nexus")


class TestHedgePolicyUnit:
    def test_validation(self):
        with pytest.raises(ValueError):
            HedgePolicy(quantile=0.0)
        with pytest.raises(ValueError):
            HedgePolicy(quantile=1.0)
        with pytest.raises(ValueError):
            HedgePolicy(min_samples=0)
        with pytest.raises(ValueError):
            HedgePolicy(min_delay=-1)
        with pytest.raises(ValueError):
            HedgePolicy(min_delay=2.0, max_delay=1.0)

    def test_disabled_never_hedges(self):
        peers = PeerTable(VirtualClock(), hooks=HookBus())
        for _ in range(100):
            peers.record_success(*KEY, 1.0)
        window = peers.latency(*KEY)
        assert HedgePolicy(enabled=False).hedge_delay(window) is None
        assert HedgePolicy(max_hedges=0).hedge_delay(window) is None
        assert HedgePolicy().hedge_delay(None) is None

    def test_min_samples_gate(self):
        policy = HedgePolicy(min_samples=5)
        peers = PeerTable(VirtualClock(), hooks=HookBus())
        for _ in range(4):
            peers.record_success(*KEY, 1.0)
        assert policy.hedge_delay(peers.latency(*KEY)) is None
        peers.record_success(*KEY, 1.0)
        assert policy.hedge_delay(peers.latency(*KEY)) \
            == pytest.approx(1.0)

    def test_delay_is_the_tracked_quantile_clamped(self):
        peers = PeerTable(VirtualClock(), hooks=HookBus())
        for ms in range(1, 101):                 # 0.01 .. 1.00
            peers.record_success(*KEY, ms / 100.0)
        window = peers.latency(*KEY)
        policy = HedgePolicy(quantile=0.9, min_samples=10)
        assert policy.hedge_delay(window) == pytest.approx(0.91)
        low = HedgePolicy(quantile=0.9, min_samples=10, min_delay=2.0)
        assert low.hedge_delay(window) == pytest.approx(2.0)
        high = HedgePolicy(quantile=0.9, min_samples=10, max_delay=0.5)
        assert high.hedge_delay(window) == pytest.approx(0.5)


class TestLatencyTrackerUnit:
    def test_nearest_rank_quantile(self):
        peers = PeerTable(VirtualClock(), hooks=HookBus())
        assert peers.latency(*KEY).quantile(0.5) is None  # no samples
        for v in (0.3, 0.1, 0.2, 0.4):
            peers.record_success(*KEY, v)
        window = peers.latency(*KEY)
        assert window.quantile(0.5) == pytest.approx(0.3)
        assert window.quantile(0.99) == pytest.approx(0.4)

    def test_window_slides(self, monkeypatch):
        monkeypatch.setattr(peers_module, "LATENCY_WINDOW", 3)
        peers = PeerTable(VirtualClock(), hooks=HookBus())
        for v in (9.0, 1.0, 1.0, 1.0):
            peers.record_success(*KEY, v)
        window = peers.latency(*KEY)
        assert window.count == 4                 # total ever seen
        assert window.quantile(0.99) == pytest.approx(1.0)  # 9.0 aged out

    def test_negative_samples_ignored(self):
        peers = PeerTable(VirtualClock(), hooks=HookBus())
        peers.record_success(*KEY, -1.0)
        assert peers.latency(*KEY).count == 0


def _world(hedge_policy=None):
    tb = paper_testbed()
    sim = NetworkSimulator(tb.topology)
    orb = ORB(simulator=sim)
    client = orb.context("client", machine=tb.m0)
    s1 = orb.context("s1", machine=tb.m1)
    if hedge_policy is not None:
        client.hedge_policy = hedge_policy
    return orb, sim, client, s1


def _watch(gp):
    events = []
    durations = []
    for kind in ("hedge", "hedge_win", "hedge_loss"):
        gp.hooks.on(kind, lambda e, k=kind: events.append((k, e.data)))
    gp.hooks.on("request",
                lambda e: durations.append(e.data["duration"])
                if e.data["outcome"] == "ok" else None)
    return events, durations


class TestHedgedInvocation:
    WARMUP = 10

    def _policy(self):
        return HedgePolicy(enabled=True, quantile=0.9,
                           min_samples=self.WARMUP)

    def test_hedge_beats_a_slow_primary(self, ):
        orb, sim, client, s1 = _world(self._policy())
        try:
            servant = Register()
            gp = client.bind(s1.export(servant))
            events, durations = _watch(gp)
            for i in range(self.WARMUP):
                gp.invoke("put", i)
            assert events == []                  # fast path: no hedging
            plan = FaultPlan(hooks=HookBus())
            plan.delay(5.0, src="M0", dst="M1", count=1)
            sim.fault_plan = plan
            assert gp.invoke("put", 99) == 99
            kinds = [k for k, _ in events]
            assert kinds == ["hedge", "hedge_win"]
            win = dict(events[1][1])
            # The primary ate the 5s injected delay; the hedge leg,
            # launched at ~p90 of the warm latency, returned long before.
            assert win["primary_latency"] > 5.0
            assert win["latency"] < 1.0
            # The call's reported duration is the winner's, and both
            # legs executed the idempotent method.
            assert durations[-1] == pytest.approx(win["latency"])
            assert servant.calls == self.WARMUP + 2
        finally:
            orb.shutdown()

    def test_hedge_loses_to_a_slow_hedge(self):
        orb, sim, client, s1 = _world(self._policy())
        try:
            gp = client.bind(s1.export(Register()))
            events, durations = _watch(gp)
            for i in range(self.WARMUP):
                gp.invoke("put", i)
            plan = FaultPlan(hooks=HookBus())
            plan.delay(5.0, src="M0", dst="M1", count=2)  # both legs slow
            sim.fault_plan = plan
            assert gp.invoke("put", 99) == 99
            kinds = [k for k, _ in events]
            assert kinds == ["hedge", "hedge_loss"]
            # Effective latency falls back to the primary's.
            assert durations[-1] > 5.0
        finally:
            orb.shutdown()

    def test_unsafe_methods_are_never_hedged(self):
        orb, sim, client, s1 = _world(self._policy())
        try:
            servant = Counter()
            gp = client.bind(s1.export(servant))
            events, durations = _watch(gp)
            for _ in range(self.WARMUP):
                gp.invoke("add", 1)              # not retry_safe
            plan = FaultPlan(hooks=HookBus())
            plan.delay(5.0, src="M0", dst="M1", count=1)
            sim.fault_plan = plan
            gp.invoke("add", 1)
            assert events == []                  # duplicate dispatch refused
            assert durations[-1] > 5.0
            assert servant.n == self.WARMUP + 1  # executed exactly once
        finally:
            orb.shutdown()

    def test_hedging_waits_for_min_samples(self):
        orb, sim, client, s1 = _world(self._policy())
        try:
            gp = client.bind(s1.export(Register()))
            events, _durations = _watch(gp)
            plan = FaultPlan(hooks=HookBus())
            plan.delay(5.0, src="M0", dst="M1")  # every request is slow
            sim.fault_plan = plan
            for i in range(3):                   # < min_samples
                gp.invoke("put", i)
            assert events == []                  # tracker not warm yet
        finally:
            orb.shutdown()

    def test_disabled_by_default(self):
        orb, sim, client, s1 = _world()          # context default policy
        try:
            gp = client.bind(s1.export(Register()))
            events, _durations = _watch(gp)
            for i in range(30):
                gp.invoke("put", i)
            plan = FaultPlan(hooks=HookBus())
            plan.delay(5.0, src="M0", dst="M1", count=1)
            sim.fault_plan = plan
            gp.invoke("put", 99)
            assert events == []
        finally:
            orb.shutdown()


def _tail_workload(hedging: bool, calls: int = 80, seed: int = 10):
    """A retry-safe workload over a link whose requests are sometimes
    slow (seeded 10% chance of +2s); returns the per-call latencies
    observed after the latency tracker warmed up."""
    policy = HedgePolicy(enabled=True, quantile=0.9, min_samples=20) \
        if hedging else None
    orb, sim, client, s1 = _world(policy)
    try:
        gp = client.bind(s1.export(Register()))
        _events, durations = _watch(gp)
        for i in range(20):                      # warm-up, no faults
            gp.invoke("put", i)
        plan = FaultPlan(seed=seed, hooks=HookBus())
        plan.delay(2.0, probability=0.1, src="M0", dst="M1")
        sim.fault_plan = plan
        for i in range(calls):
            gp.invoke("put", i)
        return durations[20:]
    finally:
        orb.shutdown()


def _quantile(samples, q):
    ordered = sorted(samples)
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]


class TestTailLatency:
    def test_p99_improves_with_hedging(self):
        hedged = _tail_workload(hedging=True)
        unhedged = _tail_workload(hedging=False)
        assert len(hedged) == len(unhedged) == 80
        p99_hedged = _quantile(hedged, 0.99)
        p99_unhedged = _quantile(unhedged, 0.99)
        # The injected tail is ~2s; a hedge launched at ~p90 of the warm
        # distribution cuts the slow calls to roughly 2x the base RTT.
        assert p99_unhedged > 2.0
        assert p99_hedged < p99_unhedged / 2
        # The median is not noticeably hurt (hedges only fire on the tail).
        assert _quantile(hedged, 0.5) == pytest.approx(
            _quantile(unhedged, 0.5), rel=0.05)

    def test_tail_workload_is_deterministic(self):
        assert _tail_workload(hedging=True) == _tail_workload(hedging=True)
