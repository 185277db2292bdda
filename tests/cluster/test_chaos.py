"""Tests for the chaos harness: seeded fault-plan workloads.

Closes the ROADMAP item "drive repro.cluster workloads through seeded
FaultPlans and assert throughput degradation curves": determinism of
the whole report (same seed => identical buckets, metrics, and
WorkloadResult), a real degradation-envelope pass, and a negative test
where a deliberately unhealed partition fails `assert_degradation`.
"""

import pytest

from repro.cluster import (
    BatchedSyntheticWorkload,
    ChaosRun,
    SyntheticWorkload,
    bind_workers,
    build_cluster,
)
from repro.core import ORB
from repro.core.instrumentation import GLOBAL_HOOKS
from repro.core.peers import PeerTable
from repro.core.resilience import RetryPolicy
from repro.faults import FaultPlan, FaultRule
from repro.metrics import DegradationEnvelopeError, assert_degradation
from repro.simnet import ETHERNET_10, NetworkSimulator, Topology

SEED = 17


def make_world(seed=SEED):
    topo = Topology()
    site = topo.add_site("site")
    lan = topo.add_lan("lan", site, ETHERNET_10)
    for i in range(3):
        topo.add_machine(f"m{i}", lan)
    sim = NetworkSimulator(topo, keep_records=0)
    orb = ORB(simulator=sim)
    nodes = build_cluster(orb, ["m1", "m2"], workers_per_node=1)
    client = orb.context("client", machine="m0")
    client.peers = PeerTable(client.clock, cooldown=1.0)
    table = bind_workers(client, nodes,
                         retry_policy=RetryPolicy(max_attempts=4,
                                                  seed=seed))
    return sim, orb, table


def loss_and_flap_plan(seed=SEED):
    """Reply loss in [2, 4) plus a one-second flap of m2 at t=5."""
    plan = FaultPlan(seed=seed)
    plan.rule_between(2.0, 4.0,
                      FaultRule("drop", probability=0.6, dst="m0"))
    plan.flap_node("m2", ["m0", "m1"], at=5.0, duration=1.0)
    return plan


def run_chaos(seed=SEED, plan_factory=loss_and_flap_plan, n_requests=300):
    sim, orb, table = make_world(seed)
    workload = SyntheticWorkload(seed=seed, n_requests=n_requests,
                                 object_names=list(table),
                                 payload_bytes=2048,
                                 mean_think_seconds=0.02)
    plan = plan_factory(seed)
    report = ChaosRun(workload, plan, bucket_seconds=1.0).run([table], sim)
    orb.shutdown()
    return report


class TestChaosDeterminism:
    def test_same_seed_same_everything(self):
        a = run_chaos()
        b = run_chaos()
        assert a.curve.to_dicts() == b.curve.to_dicts()
        assert a.metrics == b.metrics
        assert a.result == b.result
        assert a.to_dict() == b.to_dict()

    def test_different_seeds_differ(self):
        a = run_chaos(seed=17)
        b = run_chaos(seed=18)
        assert a.curve.to_dicts() != b.curve.to_dicts()

    def test_faults_actually_degraded_the_run(self):
        report = run_chaos()
        assert report.result.errors > 0
        counters = report.metrics["counters"]
        assert counters["faults_injected_total"] > 0
        assert counters["retries_total"] > 0
        # degradation is visible in the loss window's buckets
        window = [b for b in report.curve.buckets
                  if 2.0 <= b.start < 4.0]
        baseline = report.curve.buckets[0].goodput
        assert min(b.goodput for b in window) < baseline
        assert max(b.error_rate for b in window) > 0

    def test_envelope_passes_on_recovering_run(self):
        report = run_chaos()
        summary = assert_degradation(report.curve, max_dip=0.95,
                                     recover_within=4.0)
        assert summary["recovered_at"] is not None


def run_chaos_batched(seed=SEED, plan_factory=loss_and_flap_plan,
                      n_requests=300, batch_size=4):
    """`run_chaos`, but driven through explicit batch scopes."""
    sim, orb, table = make_world(seed)
    workload = BatchedSyntheticWorkload(
        seed=seed, n_requests=n_requests, object_names=list(table),
        payload_bytes=2048, mean_think_seconds=0.02,
        batch_size=batch_size)
    plan = plan_factory(seed)
    report = ChaosRun(workload, plan, bucket_seconds=1.0).run([table], sim)
    orb.shutdown()
    return report


def quiet_plan(seed=SEED):
    """A plan with no rules: chaos machinery attached, zero faults."""
    return FaultPlan(seed=seed)


class TestChaosWithBatching:
    """The batching layer under chaos: seeded runs stay bit-identical,
    and on a quiet network batching changes the wire shape only — every
    call's outcome matches the unbatched driver."""

    def test_batched_run_bit_identical_across_runs(self):
        a = run_chaos_batched()
        b = run_chaos_batched()
        assert a.curve.to_dicts() == b.curve.to_dicts()
        assert a.metrics == b.metrics
        assert a.result == b.result
        assert a.to_dict() == b.to_dict()

    def test_batching_actually_engaged_under_faults(self):
        """The determinism test must not pass vacuously: calls really
        travel batched, faults really land, and the run degrades."""
        report = run_chaos_batched()
        counters = report.metrics["counters"]
        assert counters["batch_flushes_total"] > 0
        assert counters["batched_calls_total"] > 0
        assert counters["faults_injected_total"] > 0
        assert report.result.errors > 0
        window = [b for b in report.curve.buckets
                  if 2.0 <= b.start < 4.0]
        baseline = report.curve.buckets[0].goodput
        assert min(b.goodput for b in window) < baseline

    def test_batched_seeds_differ(self):
        a = run_chaos_batched(seed=17)
        b = run_chaos_batched(seed=18)
        assert a.curve.to_dicts() != b.curve.to_dicts()

    def test_quiet_plan_batched_matches_unbatched_aggregates(self):
        """With no faults the batched and unbatched drivers agree on
        every aggregate: same successes, same errors (none), same
        per-object request counts."""
        direct = run_chaos(plan_factory=quiet_plan, n_requests=120)
        batched = run_chaos_batched(plan_factory=quiet_plan,
                                    n_requests=120)
        assert direct.result.errors == batched.result.errors == 0
        assert direct.result.ok == batched.result.ok == 120
        assert direct.result.per_object_requests == \
            batched.result.per_object_requests

    def test_batched_equals_unbatched_call_for_call(self):
        """Distinct per-call payloads echo back identically whether the
        calls ride a batch or go out alone — value for value, in
        order."""
        def drive(batched):
            sim, orb, table = make_world()
            gps = [table[name] for name in sorted(table)]
            payloads = [bytes([i % 251]) * (1 + i % 96)
                        for i in range(80)]
            values = []
            if batched:
                for base in range(0, len(payloads), 8):
                    futures, scopes = [], {}
                    for i in range(base, min(base + 8, len(payloads))):
                        gp = gps[i % len(gps)]
                        scope = scopes.get(id(gp))
                        if scope is None:
                            scope = scopes[id(gp)] = gp.batch()
                        futures.append(
                            scope.invoke("process", payloads[i]))
                    for scope in scopes.values():
                        scope.flush()
                    values.extend(f.result() for f in futures)
            else:
                for i, payload in enumerate(payloads):
                    values.append(
                        gps[i % len(gps)].invoke("process", payload))
            orb.shutdown()
            return values

        batched, direct = drive(True), drive(False)
        assert len(batched) == len(direct) == 80
        for got, want in zip(batched, direct):
            assert bytes(got) == bytes(want)


class TestChaosEnvelopeNegative:
    def test_broken_recovery_is_caught(self):
        """A partition that never heals must fail the envelope check —
        the negative test that proves assert_degradation has teeth."""

        def broken(seed):
            plan = FaultPlan(seed=seed)
            plan.partition_at(2.0, {"m0"}, {"m1", "m2"})
            # deliberately no heal_at: the cluster stays dark
            return plan

        report = run_chaos(plan_factory=broken)
        with pytest.raises(DegradationEnvelopeError):
            assert_degradation(report.curve, recover_within=4.0)


class TestChaosHarnessMechanics:
    def test_consumed_plan_refused(self):
        sim, orb, table = make_world()
        workload = SyntheticWorkload(seed=SEED, n_requests=30,
                                     object_names=list(table))
        plan = FaultPlan(seed=SEED)
        plan.drop(probability=0.3, dst="m0")
        chaos = ChaosRun(workload, plan, bucket_seconds=1.0)
        chaos.run([table], sim)
        with pytest.raises(ValueError, match="reset"):
            chaos.run([table], sim)
        orb.shutdown()

    def test_reset_allows_rerun(self):
        sim, orb, table = make_world()
        workload = SyntheticWorkload(seed=SEED, n_requests=30,
                                     object_names=list(table))
        plan = FaultPlan(seed=SEED)
        plan.drop(probability=0.3, dst="m0")
        chaos = ChaosRun(workload, plan, bucket_seconds=1.0)
        first = chaos.run([table], sim)
        plan.reset()
        second = chaos.run([table], sim)
        # same world, same rewound plan: same *fault trail*; virtual
        # time has moved on, so buckets shift but totals agree
        assert first.result.errors == second.result.errors
        assert first.metrics["counters"] == second.metrics["counters"]
        orb.shutdown()

    def test_plan_gets_private_bus(self):
        """ChaosRun must never record through GLOBAL_HOOKS (the GP
        mirrors every event there — it would double-count)."""
        sim, orb, table = make_world()
        workload = SyntheticWorkload(seed=SEED, n_requests=10,
                                     object_names=list(table))
        plan = FaultPlan(seed=SEED)        # defaults to GLOBAL_HOOKS
        assert plan.hooks is GLOBAL_HOOKS
        report = ChaosRun(workload, plan).run([table], sim)
        assert plan.hooks is not GLOBAL_HOOKS
        assert report.metrics["counters"]["requests_total"] == 10
        orb.shutdown()

    def test_recorder_detached_after_run(self):
        sim, orb, table = make_world()
        workload = SyntheticWorkload(seed=SEED, n_requests=10,
                                     object_names=list(table))
        report = ChaosRun(workload, FaultPlan(seed=SEED)).run([table], sim)
        before = report.metrics["counters"]["requests_total"]
        next(iter(table.values())).invoke("process", b"x")
        assert report.recorder.counter_value("requests_total") == before
        orb.shutdown()

    def test_resolve_path_attaches_lazily(self):
        sim, orb, table = make_world()
        workload = SyntheticWorkload(seed=SEED, n_requests=20,
                                     object_names=list(table))
        report = ChaosRun(workload, FaultPlan(seed=SEED)).run(
            [None], sim, resolve=lambda ci, name: table[name])
        assert report.metrics["counters"]["requests_total"] == 20
        orb.shutdown()


class TestWorkloadReuse:
    def test_repeated_run_accumulates_nothing(self):
        """Reuse regression: per-object counters, latency stats, and
        error counts must all start fresh on every run() call."""
        workload = SyntheticWorkload(seed=SEED, n_requests=25,
                                     object_names=["wm1-0", "wm2-0"])

        def one_run():
            sim, orb, table = make_world()
            result = workload.run([table], sim)
            orb.shutdown()
            return result

        first, second = one_run(), one_run()
        assert first == second
        assert first.to_dict() == second.to_dict()
        assert sum(first.per_object_requests.values()) == 25
        assert first.latencies.count == 25

    def test_back_to_back_runs_on_one_world(self):
        sim, orb, table = make_world()
        workload = SyntheticWorkload(seed=SEED, n_requests=20,
                                     object_names=list(table))
        first = workload.run([table], sim)
        second = workload.run([table], sim)
        # fresh result object per run: nothing carried over
        assert second.latencies.count == 20
        assert sum(second.per_object_requests.values()) == 20
        assert second.errors == 0
        assert first.latencies.count == 20
        orb.shutdown()

    def test_on_error_validation(self):
        sim, orb, table = make_world()
        workload = SyntheticWorkload(seed=SEED, n_requests=5,
                                     object_names=list(table))
        with pytest.raises(ValueError):
            workload.run([table], sim, on_error="ignore")
        orb.shutdown()
