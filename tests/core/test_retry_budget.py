"""Shared per-peer retry budgets: token-bucket unit behaviour and the
flapping-peer amplification bound (the tentpole acceptance scenario:
total retries across 20 concurrent ``invoke_async`` calls are bounded by
the peer's shared retry budget in the context's :class:`PeerTable`,
not by 20x the per-GP
``max_attempts``)."""

import pytest

from repro.core import ORB
from repro.core.instrumentation import HookBus
from repro.core.peers import PeerTable
from repro.exceptions import (
    RetryBudgetExhaustedError,
    RetryExhaustedError,
)
from repro.faults import FaultPlan
from repro.simnet import NetworkSimulator, paper_testbed
from repro.simnet.clock import VirtualClock

from tests.core.test_resilience import Register


class TestRetryBudgetUnit:
    def test_validation(self):
        with pytest.raises(ValueError):
            PeerTable(VirtualClock(), max_tokens=0)
        with pytest.raises(ValueError):
            PeerTable(VirtualClock(), deposit_per_call=-0.1)
        with pytest.raises(ValueError):
            PeerTable(VirtualClock(), withdraw_per_retry=0)

    def test_starts_full_and_deposits_cap(self):
        peers = PeerTable(VirtualClock(), max_tokens=2.0,
                          deposit_per_call=0.5)
        budget = peers.row("peer")
        assert budget.tokens == 2.0
        peers.deposit("peer")
        assert budget.tokens == 2.0          # capped, not 2.5
        assert budget.deposits == 1

    def test_withdraw_until_refused(self):
        peers = PeerTable(VirtualClock(), max_tokens=2.0,
                          deposit_per_call=0.0, withdraw_per_retry=1.0)
        budget = peers.row("peer")
        assert peers.try_withdraw("peer")
        assert peers.try_withdraw("peer")
        assert not peers.try_withdraw("peer")     # bucket empty
        assert budget.withdrawals == 2
        assert budget.refusals == 1
        assert budget.tokens == 0.0

    def test_deposits_refill_slowly(self):
        peers = PeerTable(VirtualClock(), max_tokens=5.0,
                          deposit_per_call=0.5)
        for _ in range(5):
            assert peers.try_withdraw("peer")
        assert not peers.try_withdraw("peer")
        peers.deposit("peer")                # 0.5: still refused
        assert not peers.try_withdraw("peer")
        peers.deposit("peer")                # 1.0: one retry affordable
        assert peers.try_withdraw("peer")

    def test_registry_is_per_peer(self):
        peers = PeerTable(VirtualClock(), max_tokens=3.0)
        a = peers.row("peer-a")
        assert peers.row("peer-a") is a      # shared across callers
        b = peers.row("peer-b")
        assert b is not a                    # but isolated per peer
        peers.try_withdraw("peer-a")
        snap = peers.snapshot()["retry_budgets"]
        assert snap == {"peer-a": 2.0, "peer-b": 3.0}

    def test_budget_error_is_a_retry_exhausted_error(self):
        # Existing handlers that catch RetryExhaustedError keep working.
        assert issubclass(RetryBudgetExhaustedError, RetryExhaustedError)


def _flapping_fanout(calls: int = 20):
    """Run ``calls`` async invocations against a peer that drops every
    reply, with breakers effectively disabled so the *budget* is the
    only thing bounding retries.  Returns the deterministic outcome."""
    tb = paper_testbed()
    sim = NetworkSimulator(tb.topology)
    orb = ORB(simulator=sim)
    try:
        client = orb.context("client", machine=tb.m0)
        s1 = orb.context("s1", machine=tb.m1)
        servant = Register()
        gp = client.bind(
            s1.export(servant),
            peers=PeerTable(client.clock, failure_threshold=10**6,
                            hooks=HookBus()))
        retries = []
        exhaustions = []
        gp.hooks.on("retry", lambda e: retries.append(e.data["attempt"]))
        gp.hooks.on("budget_exhausted",
                    lambda e: exhaustions.append(e.data))
        plan = FaultPlan(hooks=HookBus())
        plan.drop(src="M1", dst="M0")        # every reply, forever
        sim.fault_plan = plan
        futures = [gp.invoke_async("put", i) for i in range(calls)]
        errors = [type(f.exception()).__name__ for f in futures]
        budget = gp.peers.row("s1")
        return {
            "errors": tuple(errors),
            "retries": len(retries),
            "withdrawals": budget.withdrawals,
            "refusals": budget.refusals,
            "servant_calls": servant.calls,
            "exhaustion_events": len(exhaustions),
            "tokens_left": budget.tokens,
        }
    finally:
        orb.shutdown()


class TestSharedBudgetUnderFanout:
    def test_fanout_retries_bounded_by_shared_budget(self):
        out = _flapping_fanout(calls=20)
        # Unbudgeted, 20 calls x (max_attempts=3) would retry 40 times
        # and execute the servant 60 times.  The shared bucket (10
        # tokens, 0.1 deposit/call) bounds amplification to roughly the
        # burst allowance.
        assert out["retries"] == out["withdrawals"]
        assert out["retries"] <= 12          # not 40
        assert out["servant_calls"] <= 2 * 20    # not 60
        assert out["refusals"] >= 10
        assert out["exhaustion_events"] == out["refusals"]
        # Every call failed, split between "my own attempts ran out"
        # and "the shared budget refused to amplify further".
        assert set(out["errors"]) == {"RetryExhaustedError",
                                      "RetryBudgetExhaustedError"}
        assert out["errors"][0] == "RetryExhaustedError"
        assert out["errors"][-1] == "RetryBudgetExhaustedError"

    def test_fanout_outcome_is_deterministic(self):
        assert _flapping_fanout(calls=20) == _flapping_fanout(calls=20)

    def test_budget_error_carries_attempt_trail(self):
        tb = paper_testbed()
        sim = NetworkSimulator(tb.topology)
        orb = ORB(simulator=sim)
        try:
            client = orb.context("client", machine=tb.m0)
            s1 = orb.context("s1", machine=tb.m1)
            # A bucket that cannot afford even one retry.
            client.peers = PeerTable(client.clock, max_tokens=0.5,
                                     deposit_per_call=0.0)
            gp = client.bind(s1.export(Register()))
            plan = FaultPlan(hooks=HookBus())
            plan.drop(src="M1", dst="M0")
            sim.fault_plan = plan
            with pytest.raises(RetryBudgetExhaustedError) as err:
                gp.invoke("put", 1)
            assert [a.attempt for a in err.value.attempts] == [1]
            assert "s1" in str(err.value)
        finally:
            orb.shutdown()

    def test_successful_calls_never_touch_the_budget(self):
        tb = paper_testbed()
        sim = NetworkSimulator(tb.topology)
        orb = ORB(simulator=sim)
        try:
            client = orb.context("client", machine=tb.m0)
            s1 = orb.context("s1", machine=tb.m1)
            gp = client.bind(s1.export(Register()))
            for i in range(5):
                assert gp.invoke("put", i) == i
            budget = client.peers.row("s1")
            assert budget.deposits == 5
            assert budget.withdrawals == 0
            assert budget.refusals == 0
            assert client.describe()["retry_budgets"] == {"s1": 10.0}
        finally:
            orb.shutdown()
