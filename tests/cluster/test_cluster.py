"""Tests for the cluster harness and synthetic workloads."""

import pytest

from repro.cluster import SyntheticWorkload, build_cluster
from repro.cluster.node import WorkUnit
from repro.core import ORB, LoadBalancer
from repro.simnet import ETHERNET_10, NetworkSimulator, Topology


def make_world(n_machines=3):
    topo = Topology()
    site = topo.add_site("site")
    lan = topo.add_lan("lan", site, ETHERNET_10)
    for i in range(n_machines):
        topo.add_machine(f"m{i}", lan)
    sim = NetworkSimulator(topo, keep_records=0)
    return sim, ORB(simulator=sim)


class TestClusterNode:
    def test_build_cluster(self):
        _sim, orb = make_world()
        nodes = build_cluster(orb, ["m0", "m1", "m2"], workers_per_node=2)
        assert len(nodes) == 3
        assert all(len(n.objects) == 2 for n in nodes)
        assert nodes[0].context.placement.machine == "m0"

    def test_needs_simulator(self):
        with pytest.raises(ValueError):
            build_cluster(ORB(), ["m0"])

    def test_worker_roundtrip(self):
        _sim, orb = make_world()
        nodes = build_cluster(orb, ["m0", "m1"], workers_per_node=1)
        client = orb.context("client", machine="m0")
        oref = nodes[1].objects["wm1-0"]
        gp = client.bind(oref)
        assert gp.invoke("process", b"data") == b"data"
        assert gp.invoke("status")["calls"] == 1

    def test_worker_migratable(self):
        from repro.core.migration import migrate

        _sim, orb = make_world()
        nodes = build_cluster(orb, ["m0", "m1"], workers_per_node=1)
        oref = nodes[0].objects["wm0-0"]
        client = orb.context("client", machine="m1")
        gp = client.bind(oref)
        gp.invoke("process", b"x")
        migrate(nodes[0].context, oref.object_id, nodes[1].context,
                by_value=True)
        assert gp.invoke("status")["calls"] == 1


class TestSyntheticWorkload:
    def test_script_deterministic(self):
        w = SyntheticWorkload(seed=3, n_requests=50,
                              object_names=["a", "b"])
        assert w.script(4) == w.script(4)

    def test_different_seeds_differ(self):
        mk = lambda s: SyntheticWorkload(
            seed=s, n_requests=50, object_names=["a", "b"]).script(2)
        assert mk(1) != mk(2)

    def test_hotspot_skew(self):
        w = SyntheticWorkload(seed=1, n_requests=500,
                              object_names=["hot", "c1", "c2", "c3"],
                              hot_objects=["hot"], hotspot_fraction=0.9)
        script = w.script(2)
        hot = sum(1 for r in script if r.object_name == "hot")
        assert hot > 400

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticWorkload(object_names=[])
        with pytest.raises(ValueError):
            SyntheticWorkload(object_names=["a"], hotspot_fraction=1.5)

    def test_run_collects_latencies(self):
        sim, orb = make_world(2)
        nodes = build_cluster(orb, ["m0", "m1"], workers_per_node=1)
        client = orb.context("client", machine="m0")
        gps = {"wm0-0": client.bind(nodes[0].objects["wm0-0"]),
               "wm1-0": client.bind(nodes[1].objects["wm1-0"])}
        w = SyntheticWorkload(seed=1, n_requests=40,
                              object_names=list(gps),
                              payload_bytes=1024)
        result = w.run([gps], sim)
        assert result.latencies.count == 40
        assert result.makespan > 0
        assert sum(result.per_object_requests.values()) == 40
        assert result.latency_percentile(0.5) > 0

    def test_run_with_rebalance_hook(self):
        sim, orb = make_world(2)
        nodes = build_cluster(orb, ["m0", "m1"], workers_per_node=1)
        client = orb.context("client", machine="m0")
        gps = {"wm0-0": client.bind(nodes[0].objects["wm0-0"])}
        w = SyntheticWorkload(seed=1, n_requests=20,
                              object_names=["wm0-0"])
        calls = []
        result = w.run([gps], sim, rebalance_every=5,
                       rebalance=lambda: calls.append(1) or [])
        assert len(calls) == 4
        assert result.migrations == 0

    def test_nearby_objects_are_faster(self):
        """Locality shows up in workload latencies: a client hammering a
        remote object sees higher mean latency than a local one."""
        sim, orb = make_world(2)
        nodes = build_cluster(orb, ["m0", "m1"], workers_per_node=1)
        client = orb.context("client", machine="m0")
        local = {"w": client.bind(nodes[0].objects["wm0-0"])}
        remote = {"w": client.bind(nodes[1].objects["wm1-0"])}
        w = SyntheticWorkload(seed=1, n_requests=30, object_names=["w"],
                              payload_bytes=4096, mean_think_seconds=0)
        r_local = w.run([local], sim)
        r_remote = w.run([remote], sim)
        assert r_remote.mean_latency > 2 * r_local.mean_latency
