"""Admission control end to end, over real TCP pipelined channels.

An endpoint with admission enabled is offered roughly 10x its service
capacity from many threads.  The promises under test:

* queue occupancy stays bounded at the policy's capacity — pipelining
  can no longer buffer unbounded work inside the server;
* excess load is refused with explicit pushback (`OverloadError`
  client-side, `shed` events server-side), not buffered or dropped;
* interactive traffic rides ahead of batch traffic through the same
  saturated endpoint;
* a request whose propagated deadline dies in the queue is shed, not
  dispatched;
* `Endpoint.stop()` fails queued two-way requests instead of leaving
  their callers hanging.
"""

import threading
import time

import pytest

from repro.admission import BATCH, AdmissionPolicy
from repro.core import ORB
from repro.core.context import Placement
from repro.core.objref import ObjectReference
from repro.core.resilience import RetryPolicy
from repro.exceptions import (
    DeadlineExceededError,
    HpcError,
    OverloadError,
    RetryExhaustedError,
)
from repro.idl import remote_interface, remote_method


@remote_interface("Plodder")
class Plodder:
    """Echo with a fixed service time."""

    SERVICE = 0.01

    @remote_method(retry_safe=True)
    def echo(self, token):
        time.sleep(self.SERVICE)
        return token


@remote_interface("Molasses")
class Molasses:
    """Echo slow enough that queued work outlives a stop()."""

    @remote_method(retry_safe=True)
    def echo(self, token):
        time.sleep(0.5)
        return token


def tcp_world(orb, policy, servant=None):
    """(server ctx, oref) where the servant is only reachable over TCP
    and the server runs the given admission policy."""
    server = orb.context("adm-srv", enable_tcp=True,
                         placement=Placement("srv", "lan-a", "site-a"))
    server.set_admission_policy(policy)
    oref = ObjectReference.from_bytes(
        server.export(servant or Plodder()).to_bytes())
    for entry in oref.protocols:
        entry.proto_data["addresses"] = [
            a for a in entry.proto_data.get("addresses", [])
            if a.get("transport") == "tcp"]
    return server, oref


def client_ctx(orb, name="adm-cli"):
    return orb.context(name, enable_tcp=True,
                       placement=Placement(name, "lan-b", "site-b"))


def policy(**kw):
    defaults = dict(enabled=True, max_limit=2, initial_limit=2,
                    queue_capacity=4, retry_after=0.02)
    defaults.update(kw)
    return AdmissionPolicy(**defaults)


class TestOverloadStress:
    THREADS = 8
    CALLS = 12

    def test_ten_x_load_bounded_queue_and_pushback(self):
        """~10x capacity offered; the queue never exceeds its bound and
        the excess is refused with pushback, not buffered."""
        orb = ORB()
        try:
            server, oref = tcp_world(orb, policy())
            cli = client_ctx(orb)
            ok, refused = [], []
            lock = threading.Lock()

            def hammer():
                gp = cli.bind(oref, retry_policy=RetryPolicy(
                    max_attempts=2, base_backoff=0.001, jitter=0.0))
                for i in range(self.CALLS):
                    try:
                        token = f"{threading.get_ident()}-{i}"
                        assert gp.invoke("echo", token) == token
                        with lock:
                            ok.append(token)
                    except (OverloadError, RetryExhaustedError,
                            HpcError):
                        with lock:
                            refused.append(token)
                gp.close()

            threads = [threading.Thread(target=hammer)
                       for _ in range(self.THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            ctrl = server.admission
            assert ctrl.max_depth <= 4          # the bound held
            assert ctrl.shed > 0                # excess was refused...
            assert len(ok) > 0                  # ...but work still flowed
            assert len(ok) + len(refused) == self.THREADS * self.CALLS
            # pushback was recorded client-side for backoff/hedging
            assert cli.peers.pushback_notes > 0
        finally:
            orb.shutdown()

    def test_interactive_rides_ahead_of_batch(self):
        """Under saturation from batch-class traffic, interactive
        calls pop first and see a visibly shorter tail."""
        orb = ORB()
        try:
            server, oref = tcp_world(orb, policy(queue_capacity=8))
            cli = client_ctx(orb)
            stop = threading.Event()
            batch_lat, inter_lat = [], []
            lock = threading.Lock()

            def batch_load():
                gp = cli.bind(oref, priority=BATCH,
                              retry_policy=RetryPolicy(
                                  max_attempts=4, base_backoff=0.001,
                                  jitter=0.0))
                while not stop.is_set():
                    started = time.monotonic()
                    try:
                        gp.invoke("echo", "b")
                    except HpcError:
                        continue
                    with lock:
                        batch_lat.append(time.monotonic() - started)
                gp.close()

            loaders = [threading.Thread(target=batch_load)
                       for _ in range(6)]
            for t in loaders:
                t.start()
            time.sleep(0.2)                     # let the queue fill
            gp = cli.bind(oref, retry_policy=RetryPolicy(
                max_attempts=6, base_backoff=0.001, jitter=0.0))
            for i in range(30):
                started = time.monotonic()
                try:
                    gp.invoke("echo", i)
                except HpcError:
                    continue
                inter_lat.append(time.monotonic() - started)
            stop.set()
            for t in loaders:
                t.join()
            gp.close()
            assert len(inter_lat) >= 10 and len(batch_lat) >= 10
            inter_lat.sort()
            batch_lat.sort()
            inter_p50 = inter_lat[len(inter_lat) // 2]
            batch_p50 = batch_lat[len(batch_lat) // 2]
            assert inter_p50 < batch_p50
        finally:
            orb.shutdown()

    def test_deadline_expired_in_queue_is_shed(self):
        """A call whose propagated budget dies while queued is shed
        with a `deadline` pushback, never dispatched."""
        orb = ORB()
        try:
            server, oref = tcp_world(orb, policy(queue_capacity=8))
            cli = client_ctx(orb)
            stop = threading.Event()

            def saturate():
                gp = cli.bind(oref, retry_policy=RetryPolicy(
                    max_attempts=4, base_backoff=0.001, jitter=0.0))
                while not stop.is_set():
                    try:
                        gp.invoke("echo", "fill")
                    except HpcError:
                        pass
                gp.close()

            loaders = [threading.Thread(target=saturate)
                       for _ in range(4)]
            for t in loaders:
                t.start()
            time.sleep(0.2)
            # tight budget: enough to be admitted, not enough to
            # survive the queue behind 10ms services
            gp = cli.bind(oref, retry_policy=RetryPolicy(
                max_attempts=1, deadline=0.015))
            deadline_outcomes = 0
            for _ in range(20):
                try:
                    gp.invoke("echo", "urgent")
                except (OverloadError, DeadlineExceededError,
                        RetryExhaustedError):
                    deadline_outcomes += 1
                except HpcError:
                    pass
            stop.set()
            for t in loaders:
                t.join()
            gp.close()
            assert deadline_outcomes > 0
            snap = server.admission.snapshot()
            assert snap["shed"] > 0
        finally:
            orb.shutdown()


class TestStopDrain:
    def test_stop_fails_queued_requests_fast(self):
        """Queued two-way requests are answered with `stopping`
        pushback on stop — no caller waits out its own timeout."""
        orb = ORB()
        try:
            server, oref = tcp_world(
                orb, policy(max_limit=1, initial_limit=1,
                            queue_capacity=8),
                servant=Molasses())
            cli = client_ctx(orb)
            gps = [cli.bind(oref, retry_policy=RetryPolicy(max_attempts=1))
                   for _ in range(5)]
            futures = [gp.invoke_async("echo", i)
                       for i, gp in enumerate(gps)]
            time.sleep(0.15)      # one in service, the rest queued
            server.server.endpoint.stop()
            outcomes = []
            deadline = time.monotonic() + 3.0
            for f in futures:
                try:
                    outcomes.append(("ok", f.result(
                        timeout=max(deadline - time.monotonic(), 0.1))))
                except Exception as exc:  # noqa: BLE001 - recording
                    outcomes.append(("err", type(exc).__name__))
            # every future settled well before any transport timeout,
            # and the queued ones were refused, not dropped
            assert len(outcomes) == 5
            assert any(kind == "err" for kind, _ in outcomes)
        finally:
            orb.shutdown()
