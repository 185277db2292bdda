"""BATCH-THROUGHPUT: message aggregation on small-call workloads.

Small calls are round-trip bound: a 64-byte echo pays the same framing,
capability pass, and RTT as a 64 KiB one.  This bench measures how much
of that fixed cost the batching layer recovers, three ways:

* **TCP, explicit scopes** — sequential small echoes vs the same calls
  queued through ``gp.batch()`` scopes over one pipelined connection.
  The scoped run must clear **2x** the unbatched msgs/sec (it typically
  lands far higher: one round trip per chunk instead of per call).
* **TCP, transparent coalescing** — a threaded workload with the
  context's :class:`~repro.core.batching.BatchPolicy` enabled; reported
  via the recorder's ``batch_*`` counters.  The gate here is that
  aggregation really happens (mean flushed batch size > 1), not a
  wall-clock ratio — thread scheduling is the driver's, not ours.
* **simnet, virtual time** — the seeded
  :class:`~repro.cluster.workload.BatchedSyntheticWorkload` vs its
  unbatched twin on a quiet simulated cluster.  Batched goodput must
  clear **2x**, and two identically-seeded runs must agree bit for bit
  (makespan, latencies, per-object counts).

Also runnable as a plain script (CI's docs job uses it as a smoke
gate):

    python benchmarks/bench_batching.py --smoke
"""

import argparse
import sys
import threading
import time

import pytest

from repro.cluster import (
    BatchedSyntheticWorkload,
    SyntheticWorkload,
    bind_workers,
    build_cluster,
)
from repro.cluster.node import WorkUnit
from repro.core import ORB
from repro.core.context import Placement
from repro.core.objref import ObjectReference
from repro.core.peers import PeerTable
from repro.core.resilience import RetryPolicy
from repro.metrics.recorder import MetricsRecorder
from repro.simnet import ETHERNET_10, NetworkSimulator, Topology

SEED = 2026
PAYLOAD = b"\xa5" * 64          # a genuinely small call
TCP_CALLS = 600
BATCH_SIZE = 16
COALESCE_THREADS = 8
COALESCE_CALLS = 40             # per thread
SIM_REQUESTS = 400


# -- TCP wall clock -----------------------------------------------------

def tcp_world():
    """Client and server that can only reach each other over TCP, so
    every call rides the pipelined socket."""
    orb = ORB()
    server = orb.context("bench-srv", enable_tcp=True,
                         placement=Placement("sm", "sl", "ss"))
    client = orb.context("bench-cli", enable_tcp=True,
                         placement=Placement("cm", "cl", "cs"))
    oref = ObjectReference.from_bytes(
        server.export(WorkUnit("w")).to_bytes())
    for entry in oref.protocols:
        entry.proto_data["addresses"] = [
            a for a in entry.proto_data.get("addresses", [])
            if a.get("transport") == "tcp"]
    return orb, client.bind(oref)


def tcp_msgs_per_sec(n_calls: int, batch_size: int) -> float:
    """Sequential small echoes; ``batch_size > 1`` routes them through
    explicit scopes in chunks."""
    orb, gp = tcp_world()
    try:
        gp.invoke("process", PAYLOAD)   # settle the connection
        started = time.perf_counter()
        if batch_size <= 1:
            for _ in range(n_calls):
                gp.invoke("process", PAYLOAD)
        else:
            done = 0
            while done < n_calls:
                take = min(batch_size, n_calls - done)
                with gp.batch() as scope:
                    futures = [scope.invoke("process", PAYLOAD)
                               for _ in range(take)]
                for future in futures:
                    assert bytes(future.result()) == PAYLOAD
                done += take
        elapsed = time.perf_counter() - started
    finally:
        orb.shutdown()
    return n_calls / elapsed


def tcp_coalescing_stats(n_threads: int, calls_per_thread: int) -> dict:
    """Threaded workload with transparent coalescing on; returns
    msgs/sec plus the recorder's batch counters."""
    orb, gp = tcp_world()
    recorder = MetricsRecorder(clock=gp.context.clock)
    recorder.attach(gp.hooks)
    try:
        gp.context.batch_policy.enabled = True
        gp.invoke("process", PAYLOAD)
        barrier = threading.Barrier(n_threads)
        failures = []

        def worker():
            barrier.wait()
            for _ in range(calls_per_thread):
                if bytes(gp.invoke("process", PAYLOAD)) != PAYLOAD:
                    failures.append("corrupt echo")

        threads = [threading.Thread(target=worker)
                   for _ in range(n_threads)]
        started = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        elapsed = time.perf_counter() - started
        assert not failures, failures[:3]
        flushes = recorder.counter_value("batch_flushes_total")
        batched = recorder.counter_value("batched_calls_total")
    finally:
        recorder.detach(gp.hooks)
        orb.shutdown()
    total = n_threads * calls_per_thread
    return {"msgs_per_sec": total / elapsed,
            "flushes": flushes, "batched_calls": batched,
            "mean_batch": batched / flushes if flushes else 0.0}


# -- simnet virtual time ------------------------------------------------

def sim_world(seed: int):
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


def sim_point(batch_size: int, *, seed: int = SEED,
              n_requests: int = SIM_REQUESTS):
    """One virtual-time run; returns (msgs/sec, WorkloadResult)."""
    sim, orb, table = sim_world(seed)
    kwargs = dict(seed=seed, n_requests=n_requests,
                  object_names=list(table), payload_bytes=64,
                  mean_think_seconds=0.0)
    if batch_size <= 1:
        workload = SyntheticWorkload(**kwargs)
    else:
        workload = BatchedSyntheticWorkload(batch_size=batch_size,
                                            **kwargs)
    result = workload.run([table], sim)
    orb.shutdown()
    assert result.errors == 0, "quiet network must not error"
    return n_requests / result.makespan, result


# -- reporting and gates ------------------------------------------------

def run_suite(*, tcp_calls: int, coalesce_calls: int,
              sim_requests: int) -> dict:
    tcp_plain = tcp_msgs_per_sec(tcp_calls, 1)
    tcp_scoped = tcp_msgs_per_sec(tcp_calls, BATCH_SIZE)
    coalesced = tcp_coalescing_stats(COALESCE_THREADS, coalesce_calls)
    sim_plain, _ = sim_point(1, n_requests=sim_requests)
    sim_batched, first = sim_point(BATCH_SIZE, n_requests=sim_requests)
    sim_again, second = sim_point(BATCH_SIZE, n_requests=sim_requests)
    return {
        "tcp_plain": tcp_plain, "tcp_scoped": tcp_scoped,
        "coalesced": coalesced,
        "sim_plain": sim_plain, "sim_batched": sim_batched,
        "sim_again": sim_again,
        "sim_results": (first, second),
    }


def check(stats: dict) -> None:
    """The claims every run must uphold."""
    assert stats["tcp_scoped"] >= 2.0 * stats["tcp_plain"], (
        f"explicit batching must at least double TCP msgs/sec: "
        f"{stats['tcp_scoped']:.0f} vs {stats['tcp_plain']:.0f}")
    assert stats["coalesced"]["mean_batch"] > 1.0, (
        "transparent coalescing never aggregated anything")
    assert stats["sim_batched"] >= 2.0 * stats["sim_plain"], (
        f"batched virtual-time goodput must at least double: "
        f"{stats['sim_batched']:.0f} vs {stats['sim_plain']:.0f}")
    first, second = stats["sim_results"]
    assert stats["sim_batched"] == stats["sim_again"], \
        "identical seed must give identical virtual throughput"
    assert first == second and first.to_dict() == second.to_dict(), \
        "identical seed must give identical batched results"


def format_report(stats: dict) -> str:
    co = stats["coalesced"]
    return "\n".join([
        f"tcp unbatched        {stats['tcp_plain']:>10.0f} msgs/s",
        f"tcp scoped (x{BATCH_SIZE:<3})    {stats['tcp_scoped']:>10.0f}"
        f" msgs/s   ({stats['tcp_scoped'] / stats['tcp_plain']:.1f}x)",
        f"tcp coalesced        {co['msgs_per_sec']:>10.0f} msgs/s   "
        f"(mean batch {co['mean_batch']:.1f}, "
        f"{co['flushes']:.0f} flushes)",
        f"simnet unbatched     {stats['sim_plain']:>10.0f} msgs/s "
        f"(virtual)",
        f"simnet batched (x{BATCH_SIZE:<3}){stats['sim_batched']:>10.0f}"
        f" msgs/s (virtual, "
        f"{stats['sim_batched'] / stats['sim_plain']:.1f}x)",
    ])


@pytest.mark.benchmark(group="batching")
def test_batching_throughput(benchmark, record_result):
    stats = benchmark.pedantic(
        lambda: run_suite(tcp_calls=TCP_CALLS,
                          coalesce_calls=COALESCE_CALLS,
                          sim_requests=SIM_REQUESTS),
        rounds=1, iterations=1)
    check(stats)
    record_result(
        "batching_throughput",
        f"Small-call ({len(PAYLOAD)} B) throughput, unbatched vs "
        f"batched (seed {SEED})\n" + format_report(stats))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run (CI smoke gate)")
    args = parser.parse_args(argv)
    stats = run_suite(
        tcp_calls=200 if args.smoke else TCP_CALLS,
        coalesce_calls=15 if args.smoke else COALESCE_CALLS,
        sim_requests=150 if args.smoke else SIM_REQUESTS)
    check(stats)
    print(format_report(stats))
    print("\nbatching bench ok: >=2x on both transports, "
          "simnet runs deterministic")
    return 0


if __name__ == "__main__":
    sys.exit(main())
