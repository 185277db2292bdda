"""CHAOS-SWEEP: degradation curves vs fault severity.

Drives the same seeded `SyntheticWorkload` through increasingly hostile
`FaultPlan`s — a mid-run reply-loss window plus a node flap — and
reports, per severity, the degradation curve the `MetricsRecorder`
measured in virtual time: goodput dip, error rate, retry volume, and
time-to-recovery.  Every run is a pure function of its seed, so the
sweep doubles as a determinism check: the 0.4-severity point is run
twice and must produce identical buckets.

Also runnable as a plain script (CI's docs job uses it as a smoke
gate):

    python benchmarks/bench_chaos_sweep.py --smoke
"""

import argparse
import sys

import pytest

from repro.cluster import ChaosRun, SyntheticWorkload, bind_workers, build_cluster
from repro.core import ORB
from repro.core.peers import PeerTable
from repro.core.resilience import RetryPolicy
from repro.faults import FaultPlan, FaultRule
from repro.metrics import assert_degradation
from repro.simnet import ETHERNET_10, NetworkSimulator, Topology

SEED = 2026
SEVERITIES = [0.0, 0.2, 0.4, 0.6]
N_REQUESTS = 400

#: Fault phases (virtual seconds): reply loss in [2, 4), node flap at 5.
LOSS_WINDOW = (2.0, 4.0)
FLAP_AT, FLAP_FOR = 5.0, 1.0


def build_world(seed: int):
    """3 machines, workers on m1/m2, client (short-cooldown breakers)
    on m0."""
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
                         retry_policy=RetryPolicy(max_attempts=4, seed=seed))
    return sim, orb, table


def run_severity(drop_p: float, *, seed: int = SEED,
                 n_requests: int = N_REQUESTS):
    """One sweep point: the scripted chaos scenario at loss ``drop_p``."""
    sim, orb, table = build_world(seed)
    plan = FaultPlan(seed=seed)
    if drop_p > 0:
        plan.rule_between(*LOSS_WINDOW,
                          FaultRule("drop", probability=drop_p, dst="m0"))
        plan.flap_node("m2", ["m0", "m1"], at=FLAP_AT, duration=FLAP_FOR)
    workload = SyntheticWorkload(seed=seed, n_requests=n_requests,
                                 object_names=list(table),
                                 payload_bytes=2048,
                                 mean_think_seconds=0.02)
    report = ChaosRun(workload, plan, bucket_seconds=1.0).run([table], sim)
    orb.shutdown()
    return report


def sweep(severities, n_requests: int):
    return [(p, run_severity(p, n_requests=n_requests))
            for p in severities]


def format_report(results) -> str:
    lines = [f"{'loss':>5}  {'ok':>4}  {'err':>4}  {'retries':>7}  "
             f"{'dip':>6}  {'recovered':>9}"]
    for p, report in results:
        envelope = assert_degradation(report.curve, max_dip=1.0)
        retries = report.metrics["counters"].get("retries_total", 0)
        recovered = envelope["recovered_at"]
        lines.append(
            f"{p:>5.2f}  {report.result.ok:>4}  "
            f"{report.result.errors:>4}  {retries:>7.0f}  "
            f"{envelope['dip']:>6.1%}  "
            f"{'never' if recovered is None else f'{recovered:.0f}s':>9}")
    worst = results[-1][1]
    lines.append("")
    lines.append(f"worst severity ({results[-1][0]:.2f}) curve:")
    lines.append(worst.curve.format_table())
    return "\n".join(lines)


def check(results, *, n_requests: int) -> None:
    """The qualitative claims every sweep must uphold."""
    clean = results[0][1]
    assert clean.result.errors == 0, "fault-free run must not error"
    assert clean.result.ok == n_requests
    for p, report in results[1:]:
        # The harness recovers: goodput is back to >= 80% of baseline
        # within 4 virtual seconds of the trough at every severity.
        assert_degradation(report.curve, recover_within=4.0)
        assert report.result.errors > 0 or p == 0.0 or \
            report.metrics["counters"].get("retries_total", 0) > 0


def run_determinism_check(drop_p: float, n_requests: int) -> None:
    a = run_severity(drop_p, n_requests=n_requests)
    b = run_severity(drop_p, n_requests=n_requests)
    assert a.curve.to_dicts() == b.curve.to_dicts(), \
        "identical seed must give identical degradation buckets"
    assert a.metrics == b.metrics
    assert a.result == b.result


@pytest.mark.benchmark(group="chaos")
def test_chaos_sweep(benchmark, record_result):
    results = benchmark.pedantic(
        lambda: sweep(SEVERITIES, N_REQUESTS), rounds=1, iterations=1)
    check(results, n_requests=N_REQUESTS)
    run_determinism_check(0.4, N_REQUESTS)
    record_result(
        "chaos_sweep",
        f"Degradation vs reply-loss severity ({N_REQUESTS} requests, "
        f"seed {SEED}, loss window {LOSS_WINDOW}, flap at {FLAP_AT}s, "
        f"virtual time)\n" + format_report(results))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small fast sweep (CI smoke gate)")
    args = parser.parse_args(argv)
    severities = [0.0, 0.4] if args.smoke else SEVERITIES
    n_requests = 150 if args.smoke else N_REQUESTS
    results = sweep(severities, n_requests)
    check(results, n_requests=n_requests)
    run_determinism_check(severities[-1], n_requests)
    print(format_report(results))
    print("\nchaos sweep ok: envelopes held, curves deterministic")
    return 0


if __name__ == "__main__":
    sys.exit(main())
