"""The endpoint's one dispatch path: every threaded two-way request goes
through its admission controller, whichever policy is installed, and a
channel is closed only after each two-way request read off it has been
answered or shed."""

import threading

import pytest

from repro.admission import AdmissionController, AdmissionPolicy
from repro.core.instrumentation import HookBus
from repro.exceptions import ChannelClosedError
from repro.nexus.endpoint import Endpoint, Startpoint
from repro.nexus.rsr import RsrMessage
from repro.transport.inproc import InProcTransport

POLICIES = {"off": AdmissionPolicy(),
            "on": AdmissionPolicy(enabled=True)}


class RecordingChannel:
    """Server-side channel wrapper: logs delivered replies and the close,
    and flags when the peer's close has been read."""

    def __init__(self, inner):
        self.inner = inner
        self.log = []
        self.peer_closed = threading.Event()
        self.closed = threading.Event()

    def send(self, data):
        self.inner.send(data)
        self.log.append(("reply", RsrMessage.decode(data).request_id))

    def recv(self, timeout=None):
        try:
            return self.inner.recv(timeout)
        except ChannelClosedError:
            self.peer_closed.set()
            raise

    def close(self):
        self.log.append(("close",))
        self.inner.close()
        self.closed.set()


class RecordingListener:
    def __init__(self, inner):
        self.inner = inner
        self.address = inner.address
        self.accepted = []

    def accept(self, timeout=None):
        channel = RecordingChannel(self.inner.accept(timeout))
        self.accepted.append(channel)
        return channel

    def close(self):
        self.inner.close()


def serve(policy, hooks=None):
    transport = InProcTransport()
    endpoint = Endpoint("e")
    endpoint.admission = AdmissionController(policy, hooks=hooks)
    listener = RecordingListener(transport.listen())
    endpoint.serve_listener(listener)
    return transport, endpoint, listener


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_reply_sent_before_channel_closes(policy):
    """The client closes its channel while the handler is still blocked;
    the serve loop sees the close first but must hold the channel open
    until the reply is out."""
    transport, endpoint, listener = serve(POLICIES[policy])
    entered, release = threading.Event(), threading.Event()

    def blocked(payload):
        entered.set()
        release.wait(10.0)
        return b"done"

    endpoint.register("blocked", blocked)
    try:
        client = transport.connect(listener.address)
        client.send(RsrMessage.request(7, "blocked", b"").encode())
        assert entered.wait(10.0)
        client.close()
        (server_side,) = listener.accepted
        assert server_side.peer_closed.wait(10.0)
        release.set()
        assert server_side.closed.wait(10.0)
        assert server_side.log == [("reply", 7), ("close",)]
    finally:
        release.set()
        endpoint.stop()


def test_disabled_policy_still_admits_every_two_way_request():
    bus = HookBus()
    admitted = []
    bus.on("admit", admitted.append)
    transport, endpoint, listener = serve(AdmissionPolicy(), hooks=bus)
    endpoint.register("echo", bytes)
    try:
        sp = Startpoint(transport.connect(listener.address), timeout=10.0)
        assert sp.call("echo", b"a") == b"a"
        assert sp.call("echo", b"b") == b"b"
        sp.call("echo", b"c", oneway=True)   # oneways stay inline
        assert sp.call("echo", b"d") == b"d"
        assert len(admitted) == 3
        assert endpoint.admission.snapshot()["admitted"] == 3
        sp.close()
    finally:
        endpoint.stop()


def test_unknown_priority_class_is_served_as_best_effort():
    transport, endpoint, listener = serve(AdmissionPolicy())
    endpoint.register("echo", bytes)
    try:
        sp = Startpoint(transport.connect(listener.address), timeout=10.0)
        assert sp.call("echo", b"x", priority=9) == b"x"
        sp.close()
    finally:
        endpoint.stop()
