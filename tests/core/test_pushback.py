"""Overload pushback, client side: the PeerTable's pushback deadlines,
and the GP's treatment of `OverloadError` as throttle-not-failure (no
breaker strike, stretched backoff, suppressed hedging)."""

import pytest

from repro.core import ORB
from repro.core.instrumentation import HookBus
from repro.core.peers import PeerTable
from repro.core.protocol import ProtocolClient
from repro.core.resilience import BreakerState, HedgePolicy, RetryPolicy
from repro.exceptions import OverloadError, RetryExhaustedError
from repro.simnet.clock import VirtualClock

from tests.core.test_resilience import Register


class TestPushbackRegistry:
    def test_note_and_remaining(self):
        clock = VirtualClock()
        reg = PeerTable(clock)
        reg.note_pushback("peer", 0.5)
        assert reg.pushback_remaining("peer")
        assert reg.pushback_remaining("peer") == pytest.approx(0.5)
        clock.advance(0.3)
        assert reg.pushback_remaining("peer") == pytest.approx(0.2)
        clock.advance(0.3)
        assert not reg.pushback_remaining("peer")
        assert reg.pushback_remaining("peer") == 0.0

    def test_notes_only_extend(self):
        clock = VirtualClock()
        reg = PeerTable(clock)
        reg.note_pushback("peer", 0.5)
        reg.note_pushback("peer", 0.1)  # shorter hint must not shrink
        assert reg.pushback_remaining("peer") == pytest.approx(0.5)
        reg.note_pushback("peer", 0.9)
        assert reg.pushback_remaining("peer") == pytest.approx(0.9)

    def test_nonpositive_hints_ignored(self):
        reg = PeerTable(VirtualClock())
        reg.note_pushback("peer", 0.0)
        reg.note_pushback("peer", -1.0)
        assert not reg.pushback_remaining("peer")
        assert reg.pushback_notes == 0

    def test_snapshot_lists_active_peers_only(self):
        clock = VirtualClock()
        reg = PeerTable(clock)
        reg.note_pushback("a", 0.5)
        reg.note_pushback("b", 0.1)
        clock.advance(0.2)
        snap = reg.snapshot()["pushback"]
        assert "a" in snap and "b" not in snap


def overloading_invoke(times, retry_after=0.2):
    """Patch-ready ProtocolClient.invoke: push back ``times`` times,
    then delegate to the real implementation."""
    real = ProtocolClient.invoke
    state = {"left": times, "overloads": 0}

    def invoke(self, invocation):
        if state["left"] > 0:
            state["left"] -= 1
            state["overloads"] += 1
            raise OverloadError("server saturated",
                                retry_after=retry_after,
                                reason="queue_full")
        return real(self, invocation)

    return invoke, state


class TestGlobalPointerUnderPushback:
    @pytest.fixture
    def world(self):
        orb = ORB()
        server = orb.context("server")
        client = orb.context("client")
        gp = client.bind(server.export(Register()),
                         retry_policy=RetryPolicy(
                             max_attempts=5, base_backoff=0.001,
                             jitter=0.0, seed=3))
        yield orb, server, client, gp
        orb.shutdown()

    def test_overload_retried_and_recovered(self, world, monkeypatch):
        _orb, server, client, gp = world
        invoke, state = overloading_invoke(times=2)
        monkeypatch.setattr(ProtocolClient, "invoke", invoke)
        events = []
        gp.hooks.on("retry", lambda e: events.append(e.data))
        assert gp.invoke("put", 7) == 7
        assert state["overloads"] == 2
        # backoff honoured the server's hint: never sooner than 0.2
        assert all(e["backoff"] >= 0.2 for e in events)

    def test_no_breaker_strike_on_pushback(self, world, monkeypatch):
        _orb, server, client, gp = world
        invoke, _state = overloading_invoke(times=2)
        monkeypatch.setattr(ProtocolClient, "invoke", invoke)
        gp.invoke("put", 1)
        breaker = client.peers.breaker(server.id, "nexus")
        assert breaker.state is BreakerState.CLOSED
        assert breaker.failures == 0

    def test_pushback_noted_context_wide(self, world, monkeypatch):
        _orb, server, client, gp = world
        invoke, _state = overloading_invoke(times=1, retry_after=0.02)
        monkeypatch.setattr(ProtocolClient, "invoke", invoke)
        assert client.peers.pushback_notes == 0
        gp.invoke("put", 2)
        # the hint was recorded on the *context's* table, where every
        # GP bound to the same peer consults it (the GP slept out the
        # retry-after before succeeding, so it is no longer active)
        assert client.peers.pushback_notes == 1
        assert not client.peers.pushback_remaining(server.id)

    def test_no_failover_events_on_pushback(self, world, monkeypatch):
        """Pushback must not demote the entry — there is no healthier
        protocol to fail over to, the server itself is saturated."""
        _orb, _server, _client, gp = world
        invoke, _state = overloading_invoke(times=2)
        monkeypatch.setattr(ProtocolClient, "invoke", invoke)
        failovers = []
        gp.hooks.on("failover", lambda e: failovers.append(e))
        gp.invoke("put", 3)
        assert failovers == []

    def test_sustained_overload_exhausts_retries(self, world, monkeypatch):
        _orb, _server, _client, gp = world
        invoke, state = overloading_invoke(times=10 ** 6,
                                           retry_after=0.001)
        monkeypatch.setattr(ProtocolClient, "invoke", invoke)
        with pytest.raises(RetryExhaustedError):
            gp.invoke("put", 4)
        assert state["overloads"] == 5      # max_attempts, no more

    def test_hedging_suppressed_while_pushback_active(self, world):
        _orb, server, client, gp = world
        gp.hedge_policy = HedgePolicy(enabled=True, min_samples=1)
        # the policy *would* govern this retry-safe call...
        oref = gp._snapshot()
        assert gp._hedge_policy_for(oref, "put", False) is not None
        hedges = []
        gp.hooks.on("hedge", lambda e: hedges.append(e))
        for v in range(5):
            gp.invoke("put", v)             # trains the latency tracker
        # ...but while the peer's pushback window is open, no hedge
        # leg may launch: racing a second request at a saturated
        # server amplifies exactly the load it asked us to shed.
        client.peers.note_pushback(server.id, 60.0)
        for v in range(20):
            gp.invoke("put", v)
        assert client.peers.pushback_remaining(server.id)
        assert hedges == []
