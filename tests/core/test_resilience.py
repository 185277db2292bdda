"""Resilient invocation: retry policy, circuit breakers, and the GP's
recovery loop under deterministic fault injection."""

import pytest

from repro.core.instrumentation import HookBus
from repro.core.peers import PeerTable
from repro.core.resilience import BreakerState, RetryPolicy, sleep_on
from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    DeliveryError,
    RetryExhaustedError,
)
from repro.faults import FaultPlan, FaultyTransport
from repro.idl import remote_interface, remote_method
from repro.simnet.clock import VirtualClock

from tests.core.conftest import Counter


@remote_interface("Register")
class Register:
    """Idempotent store: ``put`` is safe to auto-retry even after the
    request may have reached dispatch."""

    def __init__(self):
        self.value = 0
        self.calls = 0

    @remote_method(retry_safe=True)
    def put(self, v: int) -> int:
        self.calls += 1
        self.value = v
        return self.value

    @remote_method
    def get(self) -> int:
        return self.value


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)

    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(base_backoff=0.1, multiplier=2.0,
                             max_backoff=0.5, jitter=0.0)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)
        assert policy.backoff(4) == pytest.approx(0.5)  # capped
        assert policy.backoff(9) == pytest.approx(0.5)

    def test_jitter_is_seeded_and_bounded(self):
        a = [RetryPolicy(seed=7).backoff(n) for n in range(1, 6)]
        b = [RetryPolicy(seed=7).backoff(n) for n in range(1, 6)]
        c = [RetryPolicy(seed=8).backoff(n) for n in range(1, 6)]
        assert a == b                 # same seed, same schedule
        assert a != c                 # different seed diverges
        plain = RetryPolicy(jitter=0.0)
        for n, jittered in enumerate(a, start=1):
            base = plain.backoff(n)
            assert base <= jittered <= base * 1.25


class TestSleepOn:
    def test_virtual_clock_advances_instantly(self):
        clock = VirtualClock()
        sleep_on(clock, 123.0)
        assert clock.now() == pytest.approx(123.0)

    def test_non_positive_is_noop(self):
        clock = VirtualClock()
        sleep_on(clock, 0.0)
        sleep_on(clock, -1.0)
        assert clock.now() == 0.0


#: The ``(peer, proto)`` pair the breaker unit tests drive.
KEY = ("ctx", "nexus")


class TestCircuitBreaker:
    def test_threshold_opens(self):
        clock = VirtualClock()
        peers = PeerTable(clock, failure_threshold=3, cooldown=10.0,
                          hooks=HookBus())
        assert peers.record_failure(*KEY) is False
        assert peers.record_failure(*KEY) is False
        assert peers.record_failure(*KEY) is True
        assert peers.breaker(*KEY).state is BreakerState.OPEN
        assert not peers.allow(*KEY)

    def test_cooldown_half_opens(self):
        clock = VirtualClock()
        peers = PeerTable(clock, failure_threshold=1, cooldown=5.0,
                          hooks=HookBus())
        peers.record_failure(*KEY)
        assert not peers.allow(*KEY)
        clock.advance(4.9)
        assert not peers.allow(*KEY)
        clock.advance(0.2)
        assert peers.allow(*KEY)
        assert peers.breaker(*KEY).state is BreakerState.HALF_OPEN

    def test_half_open_failure_reopens(self):
        clock = VirtualClock()
        peers = PeerTable(clock, failure_threshold=1, cooldown=5.0,
                          hooks=HookBus())
        peers.record_failure(*KEY)
        clock.advance(5.0)
        assert peers.allow(*KEY)
        assert peers.record_failure(*KEY) is True   # re-opened
        assert not peers.allow(*KEY)                # cooldown restarted

    def test_half_open_success_closes(self):
        clock = VirtualClock()
        peers = PeerTable(clock, failure_threshold=1, cooldown=5.0,
                          hooks=HookBus())
        peers.record_failure(*KEY)
        clock.advance(5.0)
        peers.allow(*KEY)
        assert peers.record_success(*KEY) is True
        assert peers.breaker(*KEY).state is BreakerState.CLOSED
        assert peers.allow(*KEY)

    def test_success_resets_failure_count(self):
        clock = VirtualClock()
        peers = PeerTable(clock, failure_threshold=2, hooks=HookBus())
        peers.record_failure(*KEY)
        peers.record_success(*KEY)
        peers.record_failure(*KEY)
        assert peers.breaker(*KEY).state is BreakerState.CLOSED


class TestBreakerRegistry:
    def test_unknown_pair_allows(self):
        peers = PeerTable(VirtualClock(), hooks=HookBus())
        assert peers.allow("ctx", "nexus")
        assert peers.breaker("ctx", "nexus").state is BreakerState.CLOSED

    def test_open_event_emitted(self):
        bus = HookBus()
        events = []
        bus.on("breaker_open", lambda e: events.append(e.data))
        peers = PeerTable(VirtualClock(), failure_threshold=2, hooks=bus)
        peers.record_failure("ctx", "nexus")
        peers.record_failure("ctx", "nexus")
        assert not peers.allow("ctx", "nexus")
        assert events[0]["context_id"] == "ctx"
        assert events[0]["proto_id"] == "nexus"
        assert [proto for proto, b in peers.row("ctx").breakers.items()
                if b.state is BreakerState.OPEN] == ["nexus"]
        assert peers.open_keys() == ["ctx:nexus"]

    def test_close_event_emitted(self):
        bus = HookBus()
        events = []
        bus.on("breaker_close", lambda e: events.append(e.data))
        clock = VirtualClock()
        peers = PeerTable(clock, failure_threshold=1, cooldown=1.0,
                          hooks=bus)
        peers.record_failure("ctx", "shm")
        clock.advance(1.0)
        assert peers.allow("ctx", "shm")          # half-open probe
        peers.record_success("ctx", "shm")
        assert events == [{"context_id": "ctx", "proto_id": "shm"}]

    def test_probe_feeds_only_existing_breakers(self):
        peers = PeerTable(VirtualClock(), failure_threshold=1,
                          hooks=HookBus())
        peers.record_probe("ctx", alive=False)      # no breakers yet
        assert peers.open_keys() == []
        peers.breaker("ctx", "nexus")
        peers.record_probe("ctx", alive=False)
        assert peers.open_keys() == ["ctx:nexus"]
        peers.record_probe("other", alive=False)    # different context
        assert peers.open_keys() == ["ctx:nexus"]


class TestResilientInvocation:
    """GP recovery behaviour in the simulated world (client on M0,
    servant on M1, so only the ``nexus`` entry applies)."""

    def _bind(self, sim_world, servant, **gp_kwargs):
        _orb, sim, _tb, contexts = sim_world
        oref = contexts["s1"].export(servant)
        gp = contexts["client"].bind(oref, **gp_kwargs)
        kinds = []
        for kind in ("retry", "failover"):
            gp.hooks.on(kind, lambda e, k=kind: kinds.append(k))
        gp.hooks.on("request",
                    lambda e: kinds.append(f"request:{e.data['outcome']}"))
        return sim, contexts, gp, kinds

    def test_transient_request_drop_is_retried(self, sim_world):
        """A request that provably never left this host is retried even
        for a non-retry-safe method — and executes exactly once."""
        servant = Counter()
        _orb, _sim, _tb, contexts = sim_world
        client = contexts["client"]
        plan = FaultPlan(seed=1, hooks=HookBus())
        # Two send-drops: the first is absorbed by the client's
        # transparent reconnect, the second escalates to the GP retry
        # loop.  The third send goes through.
        plan.drop(label="sim", point="send", count=2)
        client.transports["sim"] = FaultyTransport(
            client.transports["sim"], plan, clock=client.clock)
        oref = contexts["s1"].export(servant)
        gp = client.bind(oref)
        kinds = []
        gp.hooks.on("retry", lambda e: kinds.append("retry"))
        gp.hooks.on("request",
                    lambda e: kinds.append(f"request:{e.data['outcome']}"))
        assert gp.invoke("add", 1) == 1
        assert servant.n == 1               # the drops never reached it
        assert kinds == ["request:error", "retry", "request:ok"]
        assert plan.injected == [("drop", "sim:send")] * 2

    def test_reply_loss_blocks_unsafe_retry(self, sim_world):
        """A lost *reply* means the method already ran; a non-idempotent
        method must not be silently re-executed."""
        servant = Counter()
        sim, contexts, gp, _kinds = self._bind(sim_world, servant)
        plan = FaultPlan(hooks=HookBus())
        plan.drop(src="M1", dst="M0", count=1)
        sim.fault_plan = plan
        with pytest.raises(DeliveryError) as err:
            gp.invoke("add", 1)
        assert getattr(err.value, "request_dispatched", False)
        assert servant.n == 1               # ran exactly once

    def test_reply_loss_retried_when_marked_safe(self, sim_world):
        servant = Register()
        sim, _contexts, gp, kinds = self._bind(sim_world, servant)
        plan = FaultPlan(hooks=HookBus())
        plan.drop(src="M1", dst="M0", count=1)
        sim.fault_plan = plan
        assert gp.invoke("put", 9) == 9
        assert servant.calls == 2           # re-executed: marked safe
        assert servant.value == 9
        assert kinds == ["request:error", "retry", "request:ok"]

    def test_retry_unsafe_policy_overrides_guard(self, sim_world):
        servant = Counter()
        sim, _contexts, gp, _kinds = self._bind(
            sim_world, servant,
            retry_policy=RetryPolicy(retry_unsafe=True))
        plan = FaultPlan(hooks=HookBus())
        plan.drop(src="M1", dst="M0", count=1)
        sim.fault_plan = plan
        assert gp.invoke("add", 1) == 2     # ran twice, caller opted in
        assert servant.n == 2

    def test_retry_exhausted_carries_attempt_trail(self, sim_world):
        servant = Register()
        sim, _contexts, gp, _kinds = self._bind(sim_world, servant)
        plan = FaultPlan(hooks=HookBus())
        plan.drop(src="M1", dst="M0")       # every reply, forever
        sim.fault_plan = plan
        with pytest.raises(RetryExhaustedError) as err:
            gp.invoke("put", 1)
        attempts = err.value.attempts
        assert [a.attempt for a in attempts] == [1, 2, 3]
        assert {a.proto_id for a in attempts} == {"nexus"}
        assert all(a.dispatched for a in attempts)
        assert servant.calls == 3

    def test_deadline_bounds_the_whole_call(self, sim_world):
        servant = Register()
        sim, contexts, gp, _kinds = self._bind(
            sim_world, servant,
            retry_policy=RetryPolicy(max_attempts=10, base_backoff=1.0,
                                     jitter=0.0, deadline=2.5))
        plan = FaultPlan(hooks=HookBus())
        plan.drop(src="M1", dst="M0")
        sim.fault_plan = plan
        t0 = contexts["client"].clock.now()
        with pytest.raises(DeadlineExceededError) as err:
            gp.invoke("put", 1)
        assert len(err.value.attempts) < 10   # budget did not run out
        # The refusal happens *before* sleeping past the deadline.
        assert contexts["client"].clock.now() - t0 <= 2.5

    def test_failed_client_is_evicted(self, sim_world):
        """Satellite bugfix: a TransportError must drop the cached
        client so the next attempt redials instead of reusing a dead
        channel."""
        servant = Register()
        sim, _contexts, gp, _kinds = self._bind(sim_world, servant)
        plan = FaultPlan(hooks=HookBus())
        rule = plan.drop(src="M1", dst="M0")
        sim.fault_plan = plan
        with pytest.raises(RetryExhaustedError):
            gp.invoke("put", 1)
        assert gp._clients == {}            # nothing stale cached
        rule.count = rule.fired             # heal: rule is exhausted
        assert gp.invoke("put", 4) == 4     # fresh dial succeeds

    def test_breaker_trips_then_recovers(self, sim_world):
        servant = Register()
        sim, contexts, gp, _kinds = self._bind(sim_world, servant)
        bus = HookBus()
        transitions = []
        bus.on("breaker_open", lambda e: transitions.append("open"))
        bus.on("breaker_close", lambda e: transitions.append("close"))
        clock = contexts["client"].clock
        gp.peers = PeerTable(clock, failure_threshold=1, cooldown=60.0,
                             hooks=bus)
        plan = FaultPlan(hooks=HookBus())
        plan.drop(src="M1", dst="M0")
        sim.fault_plan = plan
        with pytest.raises(CircuitOpenError) as err:
            gp.invoke("put", 1)
        assert "nexus" in str(err.value)
        assert err.value.attempts           # trail survived the trip
        assert gp.peers.breaker("s1", "nexus").state is BreakerState.OPEN

        # While open, selection refuses without touching the network.
        calls_before = servant.calls
        with pytest.raises(CircuitOpenError):
            gp.invoke("put", 2)
        assert servant.calls == calls_before

        # Cooldown elapses, the fault heals: half-open probe succeeds.
        sim.fault_plan = None
        clock.advance(60.0)
        assert gp.invoke("put", 3) == 3
        assert gp.peers.breaker("s1", "nexus").state \
            is BreakerState.CLOSED
        assert transitions == ["open", "close"]

    def test_open_breakers_visible_in_describe(self, sim_world):
        servant = Register()
        _orb, sim, _tb, contexts = sim_world
        client = contexts["client"]
        client.peers = PeerTable(client.clock, failure_threshold=1,
                                 cooldown=60.0, hooks=HookBus())
        oref = contexts["s1"].export(servant)
        gp = client.bind(oref)
        plan = FaultPlan(hooks=HookBus())
        plan.drop(src="M1", dst="M0")
        sim.fault_plan = plan
        with pytest.raises(CircuitOpenError):
            gp.invoke("put", 1)
        assert client.describe()["breakers_open"] == ["s1:nexus"]


class TestPenaltyBox:
    """Sticky per-row demotion: a failed table entry is skipped by
    selection for ``penalty_seconds``.  Breakers can't do this in a
    merged replica table (every row shares a proto_id, so one key would
    shed them all); the penalty box isolates exactly the dead row."""

    def _merged_gp(self, sim_world, **gp_kwargs):
        from repro.cluster.procs import merge_orefs

        _orb, sim, _tb, contexts = sim_world
        r1, r2 = Register(), Register()
        o1 = contexts["s1"].export(r1, object_id="reg")
        o2 = contexts["s2"].export(r2, object_id="reg")
        gp = contexts["client"].bind(merge_orefs([o1, o2]), **gp_kwargs)
        kinds = []
        gp.hooks.on("failover", lambda e: kinds.append("failover"))
        gp.hooks.on("request",
                    lambda e: kinds.append(f"request:{e.data['outcome']}"))
        return sim, contexts, gp, r1, r2, kinds

    def test_failed_replica_row_is_skipped_until_ttl(self, sim_world):
        sim, contexts, gp, r1, r2, kinds = self._merged_gp(sim_world)
        clock = contexts["client"].clock
        plan = FaultPlan(hooks=HookBus())
        rule = plan.drop(dst="M1")          # s1's machine is unreachable
        sim.fault_plan = plan

        # First call pays one failed attempt, then fails over to s2.
        assert gp.invoke("put", 1) == 1
        assert r2.value == 1 and r1.calls == 0
        assert "failover" in kinds
        assert kinds.count("request:error") == 1

        # While the penalty is live, calls go straight to s2 — the dead
        # row is not probed at all.
        kinds.clear()
        for v in (2, 3, 4):
            assert gp.invoke("put", v) == v
        assert kinds == ["request:ok"] * 3
        assert r2.calls == 4

        # TTL lapses and the fault heals: the row is probed again and a
        # success clears the penalty.
        rule.count = rule.fired             # heal
        sim.fault_plan = None
        clock.advance(gp.penalty_seconds + 0.1)
        assert gp.invoke("put", 5) == 5
        assert r1.calls == 1                # traffic is back on s1
        assert not gp._penalties

    def test_fully_penalized_table_still_selects(self, sim_world):
        """When every row is in the box, selection ignores penalties
        rather than failing a call that plain retry would have saved."""
        _sim, contexts, gp, r1, _r2, _kinds = self._merged_gp(sim_world)
        for entry in gp.oref.protocols:
            gp._penalize(entry)
        assert gp.invoke("put", 7) == 7
        assert r1.value == 7                # first row, as without box

    def test_update_reference_clears_penalties(self, sim_world):
        _sim, _contexts, gp, _r1, _r2, _kinds = self._merged_gp(sim_world)
        gp._penalize(gp.oref.protocols[0])
        assert gp._penalties
        gp.update_reference(gp.oref.clone())
        assert gp._penalties == {}
