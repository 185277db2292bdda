"""Thread-safety of the GP invoke path over real (wall-clock)
transports: the context-shared executor, close-drain semantics, table
mutation during in-flight traffic, and the drop_protocol client leak
regression."""

import threading
import time

import pytest

from repro.admission import AdmissionPolicy
from repro.core.peers import PeerTable
from repro.core.resilience import RetryPolicy
from repro.exceptions import HpcError
from repro.idl import remote_interface, remote_method

from tests.core.conftest import Counter


@remote_interface("Sleeper")
class Sleeper:
    """Servant whose calls take real wall time."""

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    @remote_method
    def nap(self, seconds: float) -> int:
        with self._lock:
            self.calls += 1
            n = self.calls
        time.sleep(seconds)
        return n


@remote_interface("SafeCounter")
class SafeCounter:
    """Idempotent-by-contract counter for mutation-under-load tests."""

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    @remote_method(retry_safe=True)
    def tick(self) -> int:
        with self._lock:
            self.calls += 1
            return self.calls


class TestSharedExecutor:
    def test_async_runs_on_the_context_pool(self, wall_pair):
        server, client = wall_pair
        gp1 = client.bind(server.export(Counter()))
        gp2 = client.bind(server.export(Counter()))
        assert not hasattr(gp1, "_executor")     # no per-GP pool anymore
        assert client._executor is None          # created lazily
        futures = [gp1.invoke_async("add", 1), gp2.invoke_async("add", 2)]
        assert [f.result(timeout=10) for f in futures] == [1, 2]
        assert client._executor is not None
        assert client._executor is client.executor  # one pool, reused

    def test_fanout_across_many_gps(self, wall_pair):
        server, client = wall_pair
        servant = SafeCounter()
        oref = server.export(servant)
        gps = [client.bind(oref) for _ in range(8)]
        futures = [gp.invoke_async("tick") for gp in gps for _ in range(8)]
        results = [f.result(timeout=10) for f in futures]
        assert sorted(results) == list(range(1, 65))
        assert servant.calls == 64

    def test_context_stop_shuts_the_pool_down(self, wall_orb):
        ctx = wall_orb.context("pooled")
        executor = ctx.executor
        ctx.stop()
        assert ctx._executor is None
        with pytest.raises(RuntimeError):
            executor.submit(lambda: None)        # shut down


class TestCloseSemantics:
    def test_close_drains_inflight_async_calls(self, wall_pair):
        server, client = wall_pair
        servant = Sleeper()
        gp = client.bind(server.export(servant))
        futures = [gp.invoke_async("nap", 0.2) for _ in range(4)]
        time.sleep(0.05)                         # let the workers start
        gp.close()                               # must drain, not orphan
        assert all(f.done() for f in futures)
        results = [f.result() for f in futures]
        assert sorted(results) == [1, 2, 3, 4]
        assert servant.calls == 4

    def test_post_close_invocations_raise_clearly(self, wall_pair):
        server, client = wall_pair
        gp = client.bind(server.export(Counter()))
        gp.invoke("add", 1)
        gp.close()
        assert gp.closed
        with pytest.raises(HpcError, match="closed"):
            gp.invoke("get")
        with pytest.raises(HpcError, match="closed"):
            gp.invoke_async("get")
        with pytest.raises(HpcError, match="closed"):
            gp.invoke_oneway("bump")

    def test_close_is_idempotent(self, wall_pair):
        server, client = wall_pair
        gp = client.bind(server.export(Counter()))
        gp.invoke("add", 1)
        gp.close()
        gp.close()                               # second close is a no-op
        assert gp._clients == {}

    def test_close_does_not_kill_the_context_pool(self, wall_pair):
        server, client = wall_pair
        gp1 = client.bind(server.export(Counter()))
        gp2 = client.bind(server.export(Counter()))
        gp1.invoke_async("add", 1).result(timeout=10)
        gp1.close()
        # Other GPs on the same context keep working: the pool is the
        # context's, not the closed GP's.
        assert gp2.invoke_async("add", 5).result(timeout=10) == 5


class TestDropProtocolEviction:
    def test_dropped_entries_release_their_clients(self, wall_pair):
        server, client = wall_pair
        gp = client.bind(server.export(Counter()))
        used = gp.selected_proto_id
        gp.invoke("add", 1)
        victims = [c for e, c in gp._clients.values()
                   if e.proto_id == used]
        assert victims                           # a client was cached
        closed = []
        for victim in victims:
            original = victim.close
            victim.close = lambda orig=original: (closed.append(1),
                                                  orig())[-1]
        gp.drop_protocol(used)
        assert len(closed) == len(victims)       # closed, not leaked
        assert all(e.proto_id != used
                   for e, _c in gp._clients.values())
        assert all(e.proto_id != used for e in gp.oref.protocols)
        # The remaining table still carries the call.
        assert gp.invoke("get") == 1
        assert gp.selected_proto_id != used

    def test_drop_without_cached_client_is_fine(self, wall_pair):
        server, client = wall_pair
        gp = client.bind(server.export(Counter()))
        gp.drop_protocol("shm")                  # nothing ever dialed
        assert gp.invoke("add", 2) == 2


class TestMutationUnderLoad:
    @pytest.mark.parametrize("admission", ["off", "on"])
    def test_table_churn_during_fanout(self, wall_pair, admission):
        """Regression for the unsynchronized oref swap: hammer
        update_reference/drop_protocol from one thread while async
        invocations stream from the pool.  Every call must complete;
        no snapshot may observe a half-mutated table.

        Churn closes cached clients with requests still queued at the
        server, so this is also the regression for replies lost when
        the serve loop closed a channel before its admitted requests
        were answered."""
        server, client = wall_pair
        server.set_admission_policy(
            AdmissionPolicy(enabled=admission == "on"))
        # Churn deliberately kills cached clients mid-call; give the
        # retries generous headroom so the test asserts *safety*, not
        # budget arithmetic.
        client.peers = PeerTable(client.clock, max_tokens=10_000,
                                 deposit_per_call=0)
        servant = SafeCounter()
        oref = server.export(servant)
        gp = client.bind(oref,
                         retry_policy=RetryPolicy(max_attempts=25,
                                                  base_backoff=0.001,
                                                  max_backoff=0.005))
        original = gp.dup()
        stop = threading.Event()
        churn_errors = []

        def churn():
            while not stop.is_set():
                try:
                    gp.drop_protocol("shm")
                    gp.update_reference(original)
                    time.sleep(0.0005)
                except Exception as exc:  # noqa: BLE001
                    churn_errors.append(exc)
                    return

        worker = threading.Thread(target=churn)
        worker.start()
        try:
            futures = [gp.invoke_async("tick") for _ in range(200)]
            results = [f.result(timeout=30) for f in futures]
        finally:
            stop.set()
            worker.join()
        assert churn_errors == []
        assert len(results) == 200
        assert servant.calls >= 200              # retries may re-execute
        assert max(results) == servant.calls
