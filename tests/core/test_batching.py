"""The call coalescer and batch scopes: semantics, not just speed.

The performance claim lives in ``benchmarks/bench_batching.py``; here
we pin the *correctness* contract of `repro.core.batching`:

* results and errors are delivered per member, never smeared across a
  batch;
* a whole-batch transport failure falls back to individual calls
  through the GP's normal retry machinery;
* ``invoke_oneway`` and ``GlobalPointer.close()`` flush pending
  batches — the shutdown-loss regression (a call enqueued in an
  un-expired window must complete, not vanish);
* explicit scopes work identically in the simulated world.
"""

import threading
import time

import pytest

from repro.core.batching import BatchPolicy, BatchScope, CallCoalescer
from repro.exceptions import (
    HpcError,
    InterfaceError,
    RemoteException,
    TransportError,
)

from tests.core.conftest import Counter


def enable_batching(context, **overrides):
    policy = context.batch_policy
    policy.enabled = True
    for key, value in overrides.items():
        setattr(policy, key, value)
    return policy


class TestPolicy:
    def test_window_without_history_is_min(self):
        policy = BatchPolicy(min_window=0.001)
        assert policy.window_for(None) == 0.001

    def test_window_tracks_p50_clamped(self):
        from repro.core.instrumentation import HookBus
        from repro.core.peers import PeerTable
        from repro.simnet.clock import VirtualClock

        policy = BatchPolicy(min_window=0.001, max_window=0.010,
                             window_fraction=0.5)
        peers = PeerTable(VirtualClock(), hooks=HookBus())
        slow, fast = ("slow", "nexus"), ("fast", "nexus")
        for _ in range(10):
            peers.record_success(*slow, 0.008)
        assert policy.window_for(peers.latency(*slow)) \
            == pytest.approx(0.004)
        for _ in range(50):
            peers.record_success(*slow, 10.0)   # slow peer: clamp to max
        assert policy.window_for(peers.latency(*slow)) == 0.010
        for _ in range(10):
            peers.record_success(*fast, 1e-7)   # fast peer: clamp to min
        assert policy.window_for(peers.latency(*fast)) == 0.001


class TestTransparentCoalescing:
    def test_results_match_direct_calls(self, wall_pair):
        server, client = wall_pair
        gp = client.bind(server.export(Counter()))
        enable_batching(client)
        flushes = []
        gp.hooks.on("batch_flush", lambda ev: flushes.append(ev.data))
        futures = [gp.invoke_async("add", 1) for _ in range(24)]
        results = sorted(f.result(timeout=30) for f in futures)
        assert results == list(range(1, 25))
        assert gp.invoke("get") == 24
        assert sum(f["size"] for f in flushes) >= 24
        gp.close()

    def test_batch_caps_force_flush(self, wall_pair):
        server, client = wall_pair
        gp = client.bind(server.export(Counter()))
        # A huge window: only the caps can flush multi-member batches.
        enable_batching(client, max_batch=4, min_window=5.0,
                        max_window=5.0)
        flushes = []
        gp.hooks.on("batch_flush", lambda ev: flushes.append(ev.data))
        futures = [gp.invoke_async("add", 1) for _ in range(8)]
        for f in futures:
            f.result(timeout=30)
        assert gp.invoke_oneway("bump") is None  # drains leftovers too
        full = [f for f in flushes if f["reason"] == "full"]
        assert full and all(f["size"] == 4 for f in full)
        gp.close()

    def test_member_exception_is_per_member(self, wall_pair):
        """One failing member never poisons its batch-mates."""
        server, client = wall_pair
        gp = client.bind(server.export(Counter()))
        enable_batching(client, min_window=0.05)
        good = [gp.invoke_async("add", 1) for _ in range(3)]
        bad = gp.invoke_async("fail", "kaput")
        more = [gp.invoke_async("add", 1) for _ in range(3)]
        assert sorted(f.result(timeout=30) for f in good + more) \
            == list(range(1, 7))
        with pytest.raises(RemoteException, match="kaput"):
            bad.result(timeout=30)
        gp.close()

    def test_oversized_payload_rides_alone(self, wall_pair):
        server, client = wall_pair
        gp = client.bind(server.export(Counter()))
        enable_batching(client, max_item_bytes=64)
        flushes = []
        gp.hooks.on("batch_flush", lambda ev: flushes.append(ev.data))
        blob = "x" * 4096
        assert gp.invoke("echo", blob) == blob
        assert not flushes  # went down the direct path
        gp.close()


class TestWholeBatchFallback:
    def test_members_retry_individually(self, wall_pair):
        """A dead wire under a whole batch: every member falls back
        through its own GP and still completes."""
        server, client = wall_pair
        gp = client.bind(server.export(Counter()))
        enable_batching(client, min_window=0.2)
        entry = gp.select_protocol()
        proto_client = gp._client_for(entry)
        calls = {"n": 0}

        def broken_batch(payloads, **kwargs):
            calls["n"] += 1
            raise TransportError("wire cut under the batch")

        proto_client.invoke_batch = broken_batch
        fallbacks = []
        gp.hooks.on("batch_fallback", lambda ev: fallbacks.append(ev.data))
        futures = [gp.invoke_async("add", 1) for _ in range(4)]
        results = sorted(f.result(timeout=30) for f in futures)
        assert results == [1, 2, 3, 4]
        assert calls["n"] >= 1
        assert len(fallbacks) >= 4
        assert all(not f["dispatched"] for f in fallbacks)
        gp.close()

    def test_unsafe_member_not_blind_retried(self, wall_pair):
        """When the batch may have reached dispatch, a non-retry-safe
        member surfaces the error instead of double-executing."""
        server, client = wall_pair
        gp = client.bind(server.export(Counter()))
        enable_batching(client, min_window=0.2)
        proto_client = gp._client_for(gp.select_protocol())

        def sent_then_died(payloads, **kwargs):
            exc = TransportError("reply lost")
            exc.request_sent = True
            raise exc

        proto_client.invoke_batch = sent_then_died
        future = gp.invoke_async("add", 1)  # add is not retry_safe
        with pytest.raises(TransportError, match="reply lost"):
            future.result(timeout=30)
        # Exactly-once preserved: the add either ran zero or one time,
        # never two — and here the batch never really dispatched.
        assert gp.invoke("get") == 0
        gp.close()


class TestShutdownFlush:
    """Regression: calls must not be lost at shutdown (fix #4)."""

    def test_oneway_flushes_pending_window(self, wall_pair):
        """invoke_oneway returns only after the pending batch (its own
        call included) is on the wire — even mid-window."""
        server, client = wall_pair
        counter = Counter()
        gp = client.bind(server.export(counter))
        enable_batching(client, min_window=10.0, max_window=10.0)
        # A two-way call parks in the 10s window on a helper thread...
        parked = gp.invoke_async("add", 5)
        deadline = time.monotonic() + 5
        while client.peers.pending_calls() == 0 \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        assert client.peers.pending_calls() == 1
        # ...then a oneway must flush the whole batch eagerly.
        started = time.monotonic()
        gp.invoke_oneway("bump")
        assert time.monotonic() - started < 5.0, "oneway sat in window"
        assert parked.result(timeout=30) == 5
        assert gp.invoke("get") == 6
        gp.close()

    def test_close_flushes_pending_window(self, wall_pair):
        """close() drains calls still coalescing toward the peer."""
        server, client = wall_pair
        gp = client.bind(server.export(Counter()))
        enable_batching(client, min_window=10.0, max_window=10.0)
        parked = gp.invoke_async("add", 7)
        deadline = time.monotonic() + 5
        while client.peers.pending_calls() == 0 \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        assert client.peers.pending_calls() == 1
        gp.close()
        assert parked.result(timeout=30) == 7
        assert client.peers.pending_calls() == 0

    def test_coalescer_flush_returns_count(self, wall_pair):
        server, client = wall_pair
        gp = client.bind(server.export(Counter()))
        enable_batching(client, min_window=10.0)
        gp.invoke_async("add", 1)
        deadline = time.monotonic() + 5
        while client.peers.pending_calls() == 0 \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        assert client.peers.flush() == 1
        assert client.peers.flush() == 0
        gp.close()


class TestBatchScope:
    def test_scope_wall_clock(self, wall_pair):
        server, client = wall_pair
        gp = client.bind(server.export(Counter()))
        with gp.batch() as b:
            futures = [b.invoke("add", i) for i in range(5)]
            assert b.pending == 5
        assert [f.result() for f in futures] == [0, 1, 3, 6, 10]

    def test_scope_chunks_by_policy(self, wall_pair):
        server, client = wall_pair
        gp = client.bind(server.export(Counter()))
        client.batch_policy.max_batch = 3  # scopes honor caps even off
        flushes = []
        gp.hooks.on("batch_flush", lambda ev: flushes.append(ev.data))
        with gp.batch() as b:
            futures = [b.invoke("add", 1) for _ in range(8)]
        assert sorted(f.result() for f in futures) == list(range(1, 9))
        assert [f["size"] for f in flushes] == [3, 3, 2]
        assert all(f["reason"] == "scope" for f in flushes)

    def test_scope_member_errors_and_oneway(self, wall_pair):
        server, client = wall_pair
        gp = client.bind(server.export(Counter()))
        with gp.batch() as b:
            ok = b.invoke("add", 1)
            boom = b.invoke("fail", "scoped")
            fire = b.invoke_oneway("bump")
            missing = b.invoke("no_such_method")
        assert ok.result() == 1
        with pytest.raises(RemoteException, match="scoped"):
            boom.result()
        assert fire.result() is None
        with pytest.raises(InterfaceError):
            missing.result()
        assert gp.invoke("get") == 2  # add + bump both landed

    def test_scope_aborts_on_exception(self, wall_pair):
        server, client = wall_pair
        gp = client.bind(server.export(Counter()))
        with pytest.raises(RuntimeError):
            with gp.batch() as b:
                future = b.invoke("add", 1)
                raise RuntimeError("caller blew up mid-scope")
        with pytest.raises(HpcError, match="aborted"):
            future.result()
        assert gp.invoke("get") == 0  # nothing was sent

    def test_scope_closed_after_exit(self, wall_pair):
        server, client = wall_pair
        gp = client.bind(server.export(Counter()))
        with gp.batch() as b:
            b.invoke("add", 1)
        with pytest.raises(HpcError, match="already flushed"):
            b.invoke("add", 2)

    def test_scope_in_sim_world(self, sim_world):
        orb, sim, tb, contexts = sim_world
        gp = contexts["client"].bind(contexts["s1"].export(Counter()))
        with gp.batch() as b:
            futures = [b.invoke("add", 1) for _ in range(10)]
        assert sorted(f.result() for f in futures) == list(range(1, 11))
        assert gp.invoke("get") == 10

    def test_sim_scope_is_deterministic(self):
        """Same seed, same ops => bit-identical virtual timelines."""
        from repro.core import ORB
        from repro.simnet import NetworkSimulator, paper_testbed

        def run():
            tb = paper_testbed()
            sim = NetworkSimulator(tb.topology)
            orb = ORB(simulator=sim)
            server = orb.context("srv", machine=tb.m1)
            client = orb.context("cli", machine=tb.m0)
            gp = client.bind(server.export(Counter()))
            with gp.batch() as b:
                futures = [b.invoke("add", i) for i in range(20)]
            values = [f.result() for f in futures]
            return values, sim.clock.now()

        assert run() == run()


class TestCoalescerUnit:
    def test_leader_flushes_alone_after_window(self, wall_pair):
        server, client = wall_pair
        gp = client.bind(server.export(Counter()))
        enable_batching(client, min_window=0.01, max_window=0.01)
        flushes = []
        gp.hooks.on("batch_flush", lambda ev: flushes.append(ev.data))
        assert gp.invoke("add", 3) == 3  # lone leader: batch of one
        assert flushes and flushes[0]["size"] == 1
        assert flushes[0]["reason"] == "window"
        gp.close()

    def test_concurrent_gps_share_one_coalescer(self, wall_pair):
        """Two GPs to the same peer coalesce into the same batches."""
        server, client = wall_pair
        counter = Counter()
        oref = server.export(counter)
        gp1, gp2 = client.bind(oref), client.bind(oref)
        enable_batching(client, min_window=0.2)
        flushes = []
        gp1.hooks.on("batch_flush", lambda ev: flushes.append(ev.data))
        gp2.hooks.on("batch_flush", lambda ev: flushes.append(ev.data))
        barrier = threading.Barrier(2)

        def caller(gp):
            barrier.wait()
            return gp.invoke("add", 1)

        t1 = threading.Thread(target=caller, args=(gp1,))
        t2 = threading.Thread(target=caller, args=(gp2,))
        t1.start(); t2.start()
        t1.join(timeout=30); t2.join(timeout=30)
        assert gp1.invoke("get") == 2
        assert any(f["size"] == 2 for f in flushes), \
            [f["size"] for f in flushes]
        key = (gp1.oref.context_id, gp1.select_protocol().proto_id)
        co = client.peers.coalescer(client, *key)
        assert isinstance(co, CallCoalescer)
        assert co.pending == 0
        gp1.close(); gp2.close()

    def test_sim_context_never_coalesces(self, sim_world):
        """Transparent coalescing is wall-clock only; the synchronous
        virtual world takes the direct path even when enabled."""
        orb, sim, tb, contexts = sim_world
        client = contexts["client"]
        gp = client.bind(contexts["s1"].export(Counter()))
        enable_batching(client, min_window=5.0)
        assert gp.invoke("add", 1) == 1  # would hang if it coalesced
        assert client.peers.pending_calls() == 0


class TestScopeDirect:
    def test_scope_on_closed_gp_fails_futures(self, wall_pair):
        server, client = wall_pair
        gp = client.bind(server.export(Counter()))
        gp.close()
        scope = BatchScope(gp)
        future = scope.invoke("add", 1)
        scope.flush()
        with pytest.raises(HpcError):
            future.result()

    def test_empty_scope_flush_is_noop(self, wall_pair):
        server, client = wall_pair
        gp = client.bind(server.export(Counter()))
        assert BatchScope(gp).flush() == 0
