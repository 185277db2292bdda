"""Election, quorum-write, and failover tests for the directory
replica group, driven deterministically over simulated time (plus a
wall-clock admission-pushback flood)."""

import threading
import time

import pytest

from repro.admission import AdmissionPolicy
from repro.core import ORB
from repro.core.capabilities import TracingCapability
from repro.core.instrumentation import HookBus
from repro.directory import DirectoryCluster, LEADER
from repro.exceptions import (
    DirectoryUnavailableError,
    NameNotFoundError,
    RemoteException,
)
from repro.metrics.recorder import MetricsRecorder
from repro.simnet import ETHERNET_10, NetworkSimulator, Topology

from tests.core.conftest import Counter

SEED = 11


def make_world(seed=SEED, replicas=3, **cluster_kwargs):
    topo = Topology()
    site = topo.add_site("site")
    lan = topo.add_lan("lan", site, ETHERNET_10)
    machines = [f"m{i}" for i in range(replicas)]
    for name in machines + ["mc"]:
        topo.add_machine(name, lan)
    sim = NetworkSimulator(topo, keep_records=0)
    orb = ORB(simulator=sim)
    cluster = DirectoryCluster(orb, replicas=replicas, machines=machines,
                               seed=seed, **cluster_kwargs)
    client_ctx = orb.context("cli", machine="mc")
    return sim, orb, cluster, client_ctx


def sample_oref(ctx, version=0):
    oref = ctx.export(Counter())
    oref.version = version
    return oref


class TestElection:
    def test_exactly_one_leaseholder(self):
        _sim, _orb, cluster, _cli = make_world()
        leader = cluster.elect()
        statuses = {nid: rep.role for nid, rep in
                    cluster.replicas.items()}
        assert statuses[leader] == LEADER
        assert sum(1 for role in statuses.values()
                   if role == LEADER) == 1
        assert cluster.leader_id() == leader

    def test_leader_elected_event_carries_quorum(self):
        bus = HookBus()
        recorder = MetricsRecorder().attach(bus)
        events = []
        bus.on("leader_elected", events.append)
        _sim, _orb, cluster, _cli = make_world(hooks=bus)
        cluster.elect()
        assert len(events) >= 1
        data = events[0].data
        assert data["votes"] >= 2 and data["peers"] == 3
        counters = recorder.snapshot()["counters"]
        assert counters["leader_elections_total"] >= 1.0
        assert recorder.registry.gauge("directory_term").value >= 1.0

    def test_quorum_write_replicates_to_followers(self):
        bus = HookBus()
        recorder = MetricsRecorder().attach(bus)
        _sim, _orb, cluster, cli = make_world(hooks=bus)
        cluster.elect()
        client = cluster.client(cli)
        oref = sample_oref(cli)
        assert client.bind("svc/a", oref) == 1
        assert client.rebind("svc/a", oref) == 2
        cluster.pump(1.0)  # a few heartbeats: followers replay the log
        for replica in cluster.replicas.values():
            assert replica.state.last_seq == 2
            record = replica.state.lookup("svc/a")
            assert record.version == 2
            assert record.oref.object_id == oref.object_id
        counters = recorder.snapshot()["counters"]
        assert counters["quorum_writes_total"] == 2.0
        assert counters["quorum_writes.bind"] == 1.0
        assert counters["quorum_writes.rebind"] == 1.0

    def test_resolve_serves_from_cache_until_fresh(self):
        _sim, _orb, cluster, cli = make_world()
        cluster.elect()
        client = cluster.client(cli)
        oref = sample_oref(cli)
        client.bind("svc/a", oref)
        client.cache.clear()
        first = client.resolve("svc/a")
        hits_before = client.cache.hits
        second = client.resolve("svc/a")
        assert client.cache.hits == hits_before + 1
        assert first.object_id == second.object_id
        fresh = client.resolve("svc/a", fresh=True)
        assert fresh.object_id == oref.object_id

    def test_miss_is_typed_and_counted(self):
        bus = HookBus()
        recorder = MetricsRecorder().attach(bus)
        _sim, _orb, cluster, cli = make_world(hooks=bus)
        cluster.elect()
        client = cluster.client(cli)
        with pytest.raises(NameNotFoundError):
            client.resolve("ghost")
        counters = recorder.snapshot()["counters"]
        assert counters["directory_misses_total"] >= 1.0

    def test_validation_errors_surface_not_fail_over(self):
        _sim, _orb, cluster, cli = make_world()
        cluster.elect()
        client = cluster.client(cli)
        oref = sample_oref(cli)
        client.bind("svc/a", oref)
        # A bind of a bound name is the caller's bug: it must marshal
        # back as the servant's exception, not dissolve into failover.
        with pytest.raises(RemoteException) as err:
            client.bind("svc/a", oref)
        assert err.value.remote_type == "NameAlreadyBoundError"

    def test_unbind_invalidates_cache(self):
        _sim, _orb, cluster, cli = make_world()
        cluster.elect()
        client = cluster.client(cli)
        client.bind("svc/a", sample_oref(cli))
        client.unbind("svc/a")
        with pytest.raises(NameNotFoundError):
            client.resolve("svc/a")


class TestFailover:
    def test_leader_kill_elects_new_leader(self):
        _sim, _orb, cluster, cli = make_world()
        first = cluster.elect()
        client = cluster.client(cli)
        oref = sample_oref(cli)
        client.bind("svc/a", oref)
        first_term = cluster.replicas[first].term

        cluster.stop_replica(first)
        second = cluster.elect()
        assert second != first
        assert cluster.replicas[second].term > first_term
        # Replicated state survives the crash...
        got = client.resolve("svc/a", fresh=True)
        assert got.object_id == oref.object_id
        # ...and the group still takes writes at quorum (2 of 3).
        assert client.bind("svc/b", sample_oref(cli)) == 1

    def test_no_quorum_without_majority(self):
        _sim, _orb, cluster, cli = make_world()
        first = cluster.elect()
        client = cluster.client(cli)
        survivors = [n for n in cluster.replicas if n != first]
        cluster.stop_replica(survivors[0])
        cluster.stop_replica(survivors[1])
        # The lone survivor cannot extend its lease: once it lapses,
        # writes get no leader at all.
        cluster.pump(cluster.replicas[first].lease_seconds * 3)
        assert cluster.leader_id() == ""
        with pytest.raises(DirectoryUnavailableError):
            client.bind("svc/x", sample_oref(cli))

    def test_rebind_object_follows_migration_sweep(self):
        _sim, _orb, cluster, cli = make_world()
        cluster.elect()
        client = cluster.client(cli)
        oref = sample_oref(cli)
        client.bind("svc/main", oref)
        client.bind("svc/alias", oref)
        moved = oref.clone()
        moved.version = oref.version + 1
        rebound = client.rebind_object(oref.object_id, moved)
        assert rebound == ["svc/alias", "svc/main"]
        for name in rebound:
            got = client.resolve(name, fresh=True)
            assert got.version == moved.version


class TestWriteQuorumSafety:
    def test_partial_catchup_ack_does_not_reach_quorum(self, monkeypatch):
        """A lagging follower acking a catch-up batch that stops short
        of the new entry must not count toward the write quorum: the
        client's ok has to mean a majority holds *the entry* at ack
        time, not merely that a majority answered a heartbeat."""
        import repro.directory.replica as replica_mod
        from repro.directory.state import OP_BIND

        monkeypatch.setattr(replica_mod, "CATCHUP_BATCH", 2)
        _sim, _orb, cluster, cli = make_world()
        first = cluster.elect()
        leader = cluster.replicas[first]
        followers = [n for n in sorted(cluster.replicas) if n != first]
        # One follower is dead: the quorum write can only go through
        # the surviving (and now lagging) one.
        cluster.stop_replica(followers[1])
        survivor = cluster.replicas[followers[0]]
        # The leader runs ahead of the survivor by more than one
        # catch-up batch (as if earlier replication rounds never
        # landed): the next write's first round ships a partial batch.
        oref = sample_oref(cli)
        for i in range(3):
            leader.state.append(
                leader.state.make_entry(leader.term, OP_BIND,
                                        f"pre/{i}", oref))
        assert leader.state.last_seq - survivor.state.last_seq > 2

        client = cluster.client(cli)
        version = client.bind("svc/new", oref)
        assert version == 1
        # The ack is honest: the survivor holds the entry *now*, not
        # after some future heartbeat the leader might not live to send.
        assert survivor.state.last_seq >= leader.state.last_seq
        assert survivor.state.last_seq == 4

    def test_quorum_loss_is_reported_not_acked(self):
        """With both followers dead but the lease still warm, a write
        must come back as a quorum failure immediately — never ok."""
        from repro.exceptions import QuorumWriteError

        _sim, _orb, cluster, cli = make_world()
        first = cluster.elect()
        for node_id in [n for n in cluster.replicas if n != first]:
            cluster.stop_replica(node_id)
        client = cluster.client(cli)
        with pytest.raises(QuorumWriteError):
            client.bind("svc/x", sample_oref(cli))
        # And the failed write is not served by the leader's reads.
        with pytest.raises((NameNotFoundError,
                            DirectoryUnavailableError)):
            client.resolve("svc/x", fresh=True)

    def test_append_entries_gap_is_a_nack(self):
        """A batch with a sequence gap nacks (the contiguous prefix is
        kept); it must never ack as if the whole batch were stored."""
        from repro.directory.replica import DirectoryReplica
        from repro.directory.state import OP_BIND, LogEntry

        orb = ORB()
        try:
            ctx = orb.context("lone")
            replica = DirectoryReplica(ctx, "lone", seed=1)
            oref = ctx.export(Counter())
            e1 = LogEntry(seq=1, term=1, op=OP_BIND, name="a",
                          oref=oref, version=1)
            e3 = LogEntry(seq=3, term=1, op=OP_BIND, name="c",
                          oref=oref, version=1)
            reply = replica.append_entries(
                1, "ldr", 0, 0, [e1.to_wire(), e3.to_wire()], 5)
            assert reply["ok"] is False
            assert reply["last_seq"] == 1
            # The stored prefix still commits up to what it holds.
            assert replica.state.lookup("a").version == 1
            assert replica.state.lookup("c") is None
        finally:
            orb.shutdown()


class TestDeposedLeaderReads:
    def test_miss_from_deposed_leader_is_not_authoritative(self):
        """A partitioned leader that has not ticked past its lease yet
        still self-reports as leader; its miss must keep the client
        probing instead of hard-failing a name the real leader holds."""
        from repro.directory.replica import LEADER as ROLE_LEADER
        from repro.directory.state import OP_BIND

        _sim, _orb, cluster, cli = make_world(replicas=2)
        deposed_id, current_id = sorted(cluster.replicas)
        deposed = cluster.replicas[deposed_id]
        current = cluster.replicas[current_id]
        # The probe-order-first replica looks like a leader whose lease
        # silently lapsed (no tick has noticed yet) and lags the group.
        deposed.role = ROLE_LEADER
        deposed.leader_id = deposed_id
        deposed.term = 1
        deposed._lease_until = deposed.clock.now() - 1.0
        # The real state lives on the other replica.
        oref = sample_oref(cli)
        entry = current.state.make_entry(2, OP_BIND, "svc/live", oref)
        current.state.append(entry)
        current.state.apply_to(entry.seq)

        client = cluster.client(cli)
        got = client.resolve("svc/live", fresh=True)
        assert got.object_id == oref.object_id


class TestGlueAndAdmission:
    def test_capabilities_apply_to_directory_traffic(self):
        """Directory RPCs ride the ordinary invoke path, so a glue
        stack hung on the replicas processes every resolve."""
        _sim, _orb, cluster, cli = make_world(
            glue_stacks=[[TracingCapability.describe()]])
        cluster.elect()
        client = cluster.client(cli)
        client.bind("svc/a", sample_oref(cli))
        client.resolve("svc/a", fresh=True)
        selections = {gp.describe_selection()
                      for gp in client._gps.values()}
        assert "glue[tracing]" in selections

    def test_resolve_flood_hits_admission_pushback(self):
        """Wall-clock rail: a resolve flood against a *stalled* replica
        running admission control is shed with pushback instead of
        queueing without bound.  The stall is explicit (the test holds
        the replica's lock) so the single admission worker blocks, the
        one-slot queue fills, and every further offer must shed."""
        from repro.core.instrumentation import GLOBAL_HOOKS
        from repro.core.resilience import RetryPolicy
        from repro.exceptions import HpcError

        orb = ORB()
        recorder = MetricsRecorder().attach(GLOBAL_HOOKS)
        cluster = DirectoryCluster(
            orb, replicas=3, lease_seconds=0.6, heartbeat_seconds=0.1,
            election_timeout=(0.2, 0.4),
            admission=AdmissionPolicy(
                enabled=True, max_limit=1, initial_limit=1,
                queue_capacity=1, retry_after=0.005))
        try:
            cluster.start()
            deadline = time.time() + 10.0
            while not cluster.leader_id() and time.time() < deadline:
                time.sleep(0.05)
            assert cluster.leader_id()
            cli = orb.context("flood-cli")
            target = sorted(cluster.replicas)[0]
            replica = cluster.replicas[target]
            gps = [cli.bind(cluster.orefs[target].clone(),
                            retry_policy=RetryPolicy(max_attempts=1))
                   for _ in range(6)]
            outcomes = {"ok": 0, "refused": 0}
            lock = threading.Lock()

            def flood(gp):
                for _ in range(5):
                    try:
                        gp.invoke("resolve", "whatever")
                        with lock:
                            outcomes["ok"] += 1
                    except HpcError:
                        with lock:
                            outcomes["refused"] += 1

            replica._lock.acquire()  # stall the resolve handler
            try:
                threads = [threading.Thread(target=flood, args=(gp,))
                           for gp in gps]
                for t in threads:
                    t.start()
                time.sleep(0.4)
            finally:
                replica._lock.release()
            for t in threads:
                t.join(timeout=30.0)
            for gp in gps:
                gp.close(wait=False)
            counters = recorder.snapshot()["counters"]
            assert counters.get("sheds_total", 0.0) >= 1.0
            assert outcomes["refused"] >= 1
        finally:
            recorder.detach()
            cluster.stop()
            orb.shutdown()
