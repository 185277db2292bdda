"""HealthMonitor failure paths: wedged peers, probe timeouts, and the
breaker/balancer integration that consumes the verdicts."""

import time

import pytest

from repro.core import LoadBalancer
from repro.core.health import HealthMonitor
from repro.core.instrumentation import HookBus
from repro.core.objref import ProtocolEntry
from repro.core.peers import PeerTable
from repro.core.resilience import BreakerState

from tests.core.conftest import Counter


@pytest.fixture
def home(wall_orb):
    return wall_orb.context("home-hf")


class TestProbeFailures:
    def test_probe_timeout_on_wedged_peer(self, home):
        """A listener that accepts traffic but never serves it: the
        probe must come back dead within ``probe_timeout``, not hang for
        the full call timeout."""
        transport = home.transports["inproc"]
        listener = transport.listen({"key": "blackhole-hf"})
        entry = ProtocolEntry("nexus", home._base_proto_data(
            [{"transport": "inproc", "key": "blackhole-hf"}]))
        monitor = HealthMonitor(home, probe_timeout=0.2)
        monitor.watch_entry("wedged", entry)
        started = time.monotonic()
        result = monitor.probe("wedged")
        elapsed = time.monotonic() - started
        assert not result.alive
        assert "timed out" in result.error
        assert elapsed < 5.0                # probe_timeout, not 30s
        assert not monitor.is_alive("wedged")
        listener.close()

    def test_probe_timeout_does_not_wedge_monitor(self, home, wall_orb):
        """After a timed-out probe the monitor still probes healthy
        targets (the dead client was closed, not leaked)."""
        transport = home.transports["inproc"]
        listener = transport.listen({"key": "blackhole-hf2"})
        entry = ProtocolEntry("nexus", home._base_proto_data(
            [{"transport": "inproc", "key": "blackhole-hf2"}]))
        live = wall_orb.context("live-hf")
        monitor = HealthMonitor(home, probe_timeout=0.2)
        monitor.watch_entry("wedged", entry)
        monitor.watch_context(live)
        verdicts = monitor.sweep()
        assert not verdicts["wedged"].alive
        assert verdicts["live-hf"].alive
        listener.close()

    def test_shutdown_context_probe_feeds_breakers(self, home, wall_orb):
        """A dead-context verdict opens the existing breakers for that
        context; a recovery verdict closes them again."""
        target = wall_orb.context("target-hf")
        home.call_timeout = 0.3
        bus = HookBus()
        transitions = []
        bus.on("breaker_open", lambda e: transitions.append("open"))
        bus.on("breaker_close", lambda e: transitions.append("close"))
        home.peers = PeerTable(home.clock, failure_threshold=1, hooks=bus)
        # A breaker exists only once some GP has used the pair.
        home.peers.breaker("target-hf", "nexus")

        monitor = HealthMonitor(home)       # defaults to home.peers
        assert monitor.peers is home.peers
        monitor.watch_context(target)
        target.stop()
        assert not monitor.probe("target-hf").alive
        assert home.peers.breaker("target-hf", "nexus").state \
            is BreakerState.OPEN
        assert transitions == ["open"]

        # The context comes back (same id, fresh endpoints): breakers
        # close.  The orb keeps stopped ids reserved, so release it the
        # way a restart would.
        del wall_orb.contexts["target-hf"]
        monitor.last.pop("target-hf")
        revived = wall_orb.context("target-hf")
        monitor.watch_context(revived)      # re-learn its addresses
        assert monitor.probe("target-hf").alive
        assert home.peers.breaker("target-hf", "nexus").state \
            is BreakerState.CLOSED
        assert transitions == ["open", "close"]
        revived.stop()


class TestBalancerRefusesDead:
    def test_dead_receiver_refused_even_when_idle(self, wall_orb):
        """The balancer must not ship load onto a context whose probe
        failed, no matter how attractive its (stale) load figures look."""
        home = wall_orb.context("home-bal")
        hot = wall_orb.context("hot-bal")
        dead = wall_orb.context("dead-bal")
        home.call_timeout = 0.3
        oref = hot.export(Counter())
        hot.monitor.record_request(oref.object_id, 1.0)
        hot.monitor.busy_fraction.value = 0.95
        dead.monitor.busy_fraction.value = 0.0   # looks perfect on paper

        monitor = HealthMonitor(home)
        monitor.watch_context(dead)
        dead.stop()
        monitor.sweep()
        assert not monitor.is_alive("dead-bal")

        balancer = LoadBalancer([hot, dead], health=monitor)
        assert balancer.rebalance_once() == []
        assert oref.object_id in hot.servants

    def test_recovered_receiver_usable_again(self, wall_orb):
        home = wall_orb.context("home-bal2")
        hot = wall_orb.context("hot-bal2")
        cold = wall_orb.context("cold-bal2")
        oref = hot.export(Counter())
        hot.monitor.record_request(oref.object_id, 1.0)
        hot.monitor.busy_fraction.value = 0.95
        cold.monitor.busy_fraction.value = 0.05

        monitor = HealthMonitor(home)
        monitor.watch_context(cold)
        # Fake a dead verdict, then let a fresh sweep overturn it.
        home.call_timeout = 0.3
        monitor.last["cold-bal2"] = monitor.probe("cold-bal2")
        assert monitor.is_alive("cold-bal2")
        balancer = LoadBalancer([hot, cold], health=monitor)
        events = balancer.rebalance_once()
        assert [e.target_id for e in events] == ["cold-bal2"]
