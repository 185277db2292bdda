"""The three closed-loop workloads and the measurement around them.

Each workload builds its ORB and global pointers from the public API,
generates its inputs from the seed, and drives calls from one or two
client threads, each blocking on its reply.  Every reply is checked:
echoes against their input, ``status()`` by name, and on
``tcp-pipelined`` a final ``status()`` call count.

``small-rpc``
    One ORB, client and server contexts on distinct placements so that
    ``nexus`` runs over inproc.  One thread alternates a plain ``nexus``
    GP and a ``glue[quota]`` GP on the same servant; each call is
    ``status()`` or ``process()`` of a 0-256 B uint8 array.  Fixed
    per-call cost dominates.
``bulk-array``
    One ORB, one thread round-robining the four FIG5 wall-clock configs
    (``nexus``, ``shm``, ``glue[quota]``, ``glue[quota+encryption]``),
    each call echoing a 1 MiB int32 array.  Byte moving dominates.
``tcp-pipelined``
    A separate server process (``tcp_server.py``) over kernel TCP
    loopback with admission control on; two client threads share one GP
    and so one pipelined socket, sending 80% two-way ``process()`` and
    20% ``invoke_oneway("process")`` of 64 B-4 KiB.
"""

from __future__ import annotations

import json
import os
import platform
import random
import subprocess
import sys
import threading
import time

import numpy as np
from repro.cluster.node import WorkUnit
from repro.core import ORB, ObjectReference
from repro.core.capabilities import CallQuotaCapability, EncryptionCapability
from repro.core.context import Placement

import hostspeed
import ledger
import metrics
from servants import CorruptWorkUnit
from tracing import Tracer, import_spans

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("small-rpc", "bulk-array", "tcp-pipelined")

SMALL_OPS = 4096
BULK_INTS = 1 << 18            # 256 Ki int32 = 1 MiB, the top FIG5 size
BULK_ARRAYS = 4
TCP_THREADS = 2
TCP_OPS = 4096
TCP_ONEWAY_SHARE = 0.2
WARMUP_CALLS = {"small-rpc": 400, "bulk-array": 8, "tcp-pipelined": 200}
#: Traced calls kept for the ledger (decimated evenly beyond this).
KEEP_CALLS = 2000
#: The measured phase runs in slices of this length with a host-speed
#: probe between them; a traced run alternates untraced and traced slices.
SLICE_S = 0.5
SETUP_PROBES = 5
#: Host-speed probes at each slice boundary.
CALIBRATIONS = 2

#: Marks a oneway op (no reply to check or time).
ONEWAY = object()


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def small_inputs(seed: int):
    """(config index, array to echo or None for status()) x SMALL_OPS."""
    rng = np.random.default_rng(seed)
    status = rng.random(SMALL_OPS) < 0.5
    sizes = rng.integers(0, 257, SMALL_OPS)
    ops = []
    for i in range(SMALL_OPS):
        ops.append((i % 2, None if status[i] else
                    rng.integers(0, 256, sizes[i], dtype=np.uint8)))
    return ops


def bulk_inputs(seed: int):
    rng = np.random.default_rng(seed)
    return [rng.integers(-2 ** 31, 2 ** 31, BULK_INTS, dtype=np.int32)
            for _ in range(BULK_ARRAYS)]


def tcp_inputs(seed: int, thread: int):
    """(oneway?, array) x TCP_OPS for one client thread."""
    rng = np.random.default_rng([seed, thread])
    oneway = rng.random(TCP_OPS) < TCP_ONEWAY_SHARE
    sizes = rng.integers(64, 4097, TCP_OPS)
    return [(bool(oneway[i]), rng.integers(0, 256, sizes[i], dtype=np.uint8))
            for i in range(TCP_OPS)]


# ---------------------------------------------------------------------------
# environments
# ---------------------------------------------------------------------------


class Stats:
    """One client thread's counts for one measurement mode."""

    def __init__(self, labels):
        self.latencies = {label: [] for label in labels}
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.mismatched = 0
        self.payload_bytes = 0
        self.errors: list = []

    def merge(self, other: "Stats", factor: float = 1.0) -> None:
        """Add ``other``; with ``factor`` (the host-speed factor of the
        slice ``other`` ran in) latencies are divided by it and the
        completed and payload counts behind rates multiplied by it."""
        for label, values in other.latencies.items():
            self.latencies[label].extend(v / factor for v in values)
        for name in ("attempted", "failed", "mismatched"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.completed += other.completed * factor
        self.payload_bytes += other.payload_bytes * factor
        self.errors.extend(other.errors)


class Keeper:
    """A uniform sample of at most ``cap`` traced calls (reservoir
    sampling, fixed seed; an even stride would alias with workloads that
    alternate configs call by call)."""

    def __init__(self, cap: int):
        self.cap = cap
        self.calls: list = []
        self.fresh: list = []
        self.seen = 0
        self._rng = random.Random(0)

    def offer(self, call) -> None:
        if len(self.calls) < self.cap:
            self.calls.append(call)
            self.fresh.append(call)
        else:
            slot = self._rng.randrange(self.seen + 1)
            if slot < self.cap:
                self.calls[slot] = call
                self.fresh.append(call)
        self.seen += 1


class Env:
    """Common driver over a built environment: ``self.threads`` holds one
    op list per client thread, each op ``(label, fn, args, expect,
    nbytes)`` with ``expect`` the echo input, ``"w"`` (status name) or
    :data:`ONEWAY`."""

    labels: tuple = ()
    #: Array bytes of every echo, when all calls echo the same size.
    echo_bytes = None

    def __init__(self):
        self.threads: list = []
        self.cursors: list = []
        self.process_sent = 0
        self._sent_lock = threading.Lock()

    # -- one thread's loop ----------------------------------------------------

    def _drive(self, index, deadline, stats, tracer=None, keeper=None,
               count=None):
        ops = self.threads[index]
        n = len(ops)
        i = self.cursors[index]
        perf = time.perf_counter
        latencies = stats.latencies
        sent = 0
        while True:
            label, fn, args, expect, nbytes = ops[i % n]
            i += 1
            stats.attempted += 1
            if nbytes is not None:     # a process() call
                sent += 1
            call = tracer.begin() if tracer is not None \
                and expect is not ONEWAY else None
            t0 = perf()
            try:
                out = fn(*args)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                t1 = perf()
                if call is not None:
                    tracer.end()
                stats.failed += 1
                if len(stats.errors) < 3:
                    stats.errors.append(f"{label}: {type(exc).__name__}: "
                                        f"{exc}")
            else:
                t1 = perf()
                if call is not None:
                    tracer.end()
                if expect is ONEWAY:
                    stats.completed += 1
                    stats.payload_bytes += nbytes
                elif _matches(out, expect):
                    stats.completed += 1
                    latencies[label].append(t1 - t0)
                    if nbytes:
                        stats.payload_bytes += 2 * nbytes
                    if call is not None:
                        call.t0, call.t1, call.label = t0, t1, label
                        call.nbytes = nbytes or 0
                        keeper.offer(call)
                else:
                    stats.mismatched += 1
            if (count is not None and i - self.cursors[index] >= count) \
                    or (count is None and t1 >= deadline):
                break
        self.cursors[index] = i
        with self._sent_lock:
            self.process_sent += sent

    def run(self, duration, stats_list, tracer=None, keepers=None,
            count=None):
        """Drive every client thread until ``duration`` elapses (or each
        made ``count`` calls); returns the elapsed wall time."""
        start = time.perf_counter()
        deadline = start + (duration or 0.0)
        keepers = keepers or [None] * len(self.threads)
        if len(self.threads) == 1:
            self._drive(0, deadline, stats_list[0], tracer, keepers[0],
                        count)
        else:
            workers = [threading.Thread(
                target=self._drive,
                args=(i, deadline, stats_list[i], tracer, keepers[i], count),
                name=f"perfbench-client-{i}")
                for i in range(len(self.threads))]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        return time.perf_counter() - start

    def first_call(self):
        """One call of the first op: the end of set-up."""
        stats = Stats(self.labels)
        self._drive(0, 0.0, stats, count=1)
        if stats.completed != 1:
            raise RuntimeError(f"first call failed: {stats.errors}")

    # -- hooks ----------------------------------------------------------------

    def trace(self, tracer, on: bool) -> None:
        if on:
            tracer.install(self.servant_classes())
        else:
            tracer.uninstall()

    def servant_classes(self):
        return ()

    def collect(self, keepers):
        """Per-layer counts the server side holds (admission)."""
        return {}

    def final_check(self):
        """(attempted, failed, note) of end-of-run checks."""
        return 0, 0, ""

    def close(self):
        raise NotImplementedError


def _matches(out, expect) -> bool:
    if isinstance(expect, str):
        return isinstance(out, dict) and out.get("name") == expect
    return (isinstance(out, np.ndarray) and out.dtype == expect.dtype
            and out.shape == expect.shape and np.array_equal(out, expect))


class InProcEnv(Env):
    """``small-rpc`` and ``bulk-array``: one in-process ORB."""

    def __init__(self, workload, seed, corrupt=False):
        super().__init__()
        self.servant_cls = CorruptWorkUnit if corrupt else WorkUnit
        self.orb = ORB()
        quota = CallQuotaCapability.for_calls(10 ** 9, applicability="always")
        far = self.orb.context("far", placement=Placement("sm", "sl", "ss"))
        client = self.orb.context("client",
                                  placement=Placement("cm", "cl", "cs"))
        servant = self.servant_cls("w")
        gps = {"nexus": client.bind(far.export(servant)),
               "glue-quota": client.bind(far.export(
                   servant, glue_stacks=[[quota]]))}
        if workload == "bulk-array":
            encryption = EncryptionCapability.server_descriptor(
                key_seed=3, applicability="always")
            gps["glue-quota-encryption"] = client.bind(far.export(
                servant, glue_stacks=[[quota, encryption]]))
            near = self.orb.context("near")
            local = self.orb.context("local")
            gps["shm"] = local.bind(near.export(servant))
            self.labels = metrics.CONFIGS
            self.echo_bytes = BULK_INTS * 4
        else:
            self.labels = ("nexus", "glue-quota")
        expected = {"nexus": "nexus", "shm": "shm",
                    "glue-quota": "glue[quota]",
                    "glue-quota-encryption": "glue[quota+encryption]"}
        for label in self.labels:
            if gps[label].describe_selection() != expected[label]:
                raise RuntimeError(
                    f"{label}: ORB selected "
                    f"{gps[label].describe_selection()!r}")
        stubs = [gps[label].narrow() for label in self.labels]
        ops = []
        if workload == "bulk-array":
            arrays = bulk_inputs(seed)
            for i in range(len(arrays) * len(self.labels)):
                cfg = i % len(self.labels)
                arr = arrays[i // len(self.labels)]
                ops.append((self.labels[cfg], stubs[cfg].process, (arr,),
                            arr, arr.nbytes))
        else:
            for cfg, arr in small_inputs(seed):
                stub = stubs[cfg]
                if arr is None:
                    ops.append((self.labels[cfg], stub.status, (), "w",
                                None))
                else:
                    ops.append((self.labels[cfg], stub.process, (arr,), arr,
                                arr.nbytes))
        self.threads = [ops]
        self.cursors = [0]

    def servant_classes(self):
        return (self.servant_cls,)

    def close(self):
        self.orb.shutdown()


class TcpEnv(Env):
    """``tcp-pipelined``: a server process and a two-thread client.  The
    server inherits the load generator's CPU (see ``hostspeed.pin``)."""

    labels = ("nexus",)

    def __init__(self, seed, corrupt=False):
        super().__init__()
        cmd = [sys.executable, os.path.join(HERE, "tcp_server.py")]
        if corrupt:
            cmd.append("--corrupt-echo")
        self.server = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, text=True)
        self.orb = None
        try:
            line = self.server.stdout.readline()
            if not line:
                raise RuntimeError("tcp server exited before serving")
            refs = json.loads(line)
            self.orb = ORB()
            client = self.orb.context("client", enable_tcp=True)
            gp = client.bind(ObjectReference.from_bytes(
                bytes.fromhex(refs["work"])))
            self.control = client.bind(ObjectReference.from_bytes(
                bytes.fromhex(refs["control"]))).narrow()
        except BaseException:
            self.close()
            raise
        self.work = gp.narrow()
        for thread in range(TCP_THREADS):
            ops = []
            for oneway, arr in tcp_inputs(seed, thread):
                if oneway:
                    ops.append(("nexus", gp.invoke_oneway, ("process", arr),
                                ONEWAY, arr.nbytes))
                else:
                    ops.append(("nexus", self.work.process, (arr,), arr,
                                arr.nbytes))
            self.threads.append(ops)
            self.cursors.append(0)

    def trace(self, tracer, on: bool) -> None:
        if on:
            self.control.trace(True)
            tracer.install(())
        else:
            tracer.uninstall()
            self.control.trace(False)

    def collect(self, keepers):
        info = self.control.collect()
        server = import_spans(info["spans"])
        for keeper in keepers:
            for call in keeper.calls:
                call.other.extend(server.get(call.rid, ()))
        return {f"admission.{key}": value
                for key, value in info["admission"].items()}

    def final_check(self):
        status = self.work.status()
        if status.get("calls") != self.process_sent:
            return 1, 1, (f"status() reports {status.get('calls')} "
                          f"process() calls, {self.process_sent} were sent")
        return 1, 0, ""

    def close(self):
        if self.orb is not None:
            self.orb.shutdown()
        if self.server.poll() is None:
            try:
                self.server.stdin.close()
                self.server.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.server.kill()
                self.server.wait()
        self.server.stdout.close()


def build(workload, seed, corrupt=False) -> Env:
    if workload == "tcp-pipelined":
        return TcpEnv(seed, corrupt)
    return InProcEnv(workload, seed, corrupt)


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------


def probe_setup(workload, seed, calibrations) -> None:
    """Body of ``run.py --setup-probe``: build, make the first call, then
    print ``READY`` and the host-speed ``calibrations`` the process took
    before its imports, and tear down."""
    env = build(workload, seed)
    try:
        env.first_call()
        print("READY", json.dumps(calibrations), flush=True)
    finally:
        env.close()


def measure_setup(workload, seed, probes=SETUP_PROBES):
    """Set-up time of ``probes`` fresh workload processes: seconds from
    spawning one (interpreter, imports, ORB, server for tcp) to its first
    successful call, less its own host-speed probes.  Returns the times
    and each process's host factor."""
    times, factors = [], []
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--setup-probe"]
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        finally:
            proc.stdout.close()
            try:
                code = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = -1
        word, _, calibrations = line.partition(" ")
        if word != "READY" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        calibrations = json.loads(calibrations)
        times.append(elapsed - sum(calibrations))
        factors.append(hostspeed.host_factor(calibrations))
    return times, factors


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------


def run_context(workload, seed):
    return {
        "workload": workload,
        "seed": seed,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "traffic": "kernel TCP loopback" if workload == "tcp-pipelined"
        else "in-process",
    }


def _slices(seconds, trace):
    n = max(2, int(round(seconds / SLICE_S)))
    n += n % 2
    return [(trace and i % 2 == 1, seconds / n) for i in range(n)]


def _calibrate():
    return [hostspeed.calibrate() for _ in range(CALIBRATIONS)]


def execute(workload, seed, seconds, trace, corrupt=False):
    """Run one workload; returns ``(correct, attempted, failed, metrics,
    diagnostics)`` with ``metrics`` as ``{name: (value, unit)}``.

    The measured phase runs in slices with host-speed probes between
    them; each slice's latencies and rates are scaled by the factor of
    the probes around it (see ``hostspeed``)."""
    setup, setup_factors = ([], []) if trace or corrupt \
        else measure_setup(workload, seed)
    hostspeed.pin()
    env = build(workload, seed, corrupt)
    tracer = Tracer() if trace else None
    nthreads = len(env.threads)
    raw = {False: Stats(env.labels), True: Stats(env.labels)}
    scaled = {False: Stats(env.labels), True: Stats(env.labels)}
    elapsed = {False: 0.0, True: 0.0}
    keepers = [Keeper(KEEP_CALLS // nthreads) for _ in range(nthreads)]
    factors = []
    layer_counts = {}
    try:
        env.run(None, [Stats(env.labels) for _ in range(nthreads)],
                count=WARMUP_CALLS[workload])
        before = _calibrate()
        for traced, duration in _slices(seconds, trace):
            per_thread = [Stats(env.labels) for _ in range(nthreads)]
            if traced:
                env.trace(tracer, True)
                elapsed[True] += env.run(duration, per_thread, tracer,
                                         keepers)
                env.trace(tracer, False)
            else:
                elapsed[False] += env.run(duration, per_thread)
            after = _calibrate()
            factor = hostspeed.host_factor(before + after)
            before = after
            factors.append(factor)
            for stats in per_thread:
                raw[traced].merge(stats)
                scaled[traced].merge(stats, factor)
            if traced:
                time.sleep(0.01)  # let server threads file their spans
                for keeper in keepers:
                    for call in keeper.fresh:
                        call.factor = factor
                    tracer.settle(keeper.fresh)
                    keeper.fresh = []
        if trace:
            layer_counts = env.collect(keepers)
        extra_attempted, extra_failed, note = env.final_check()
    finally:
        env.close()

    attempted = raw[False].attempted + raw[True].attempted + extra_attempted
    failed = sum(raw[mode].failed + raw[mode].mismatched
                 for mode in (False, True)) + extra_failed
    diagnostics = {"context": run_context(workload, seed),
                   "failed_ratio": failed / max(attempted, 1),
                   "errors": raw[False].errors + raw[True].errors
                   + ([note] if note else []),
                   "host_factor": float(np.median(factors)),
                   "elapsed_s": elapsed[False] + elapsed[True],
                   "configs": _configs(env, scaled[False])}
    completed = raw[False].completed + raw[True].completed
    units = metrics.PER_LAYER if trace else metrics.END_TO_END
    if failed:
        # Nothing to measure from a run that got wrong replies.
        values = {name: 0.0 for name in units}
    elif not trace:
        values = _end_to_end(scaled[False], elapsed[False], [
            t / f for t, f in zip(setup, setup_factors)])
        diagnostics["as_measured"] = _end_to_end(raw[False], elapsed[False],
                                                 setup)
        diagnostics["setup_probes_s"] = setup
        diagnostics["setup_host_factors"] = setup_factors
    else:
        calls = [call for keeper in keepers for call in keeper.calls]
        values, table, detail = _per_layer(env, scaled, calls, tracer,
                                           layer_counts)
        diagnostics["ledger_mean_us"] = table
        diagnostics["layers_p50_us"] = detail
    result = {name: (values[name], units[name]) for name in units}
    return failed == 0 and completed > 0, attempted, failed, result, \
        diagnostics


def _labels_with_samples(stats):
    return [label for label, values in stats.latencies.items() if values]


def _end_to_end(stats, elapsed, setup):
    labels = _labels_with_samples(stats)
    if not labels:
        raise RuntimeError("no call completed")
    return {
        "setup_s": float(np.median(setup)),
        "calls_per_s": stats.completed / elapsed,
        "latency_p50_us": metrics.geomean(
            metrics.percentile_us(stats.latencies[label], 50)
            for label in labels),
        "latency_p90_us": metrics.geomean(
            metrics.percentile_us(stats.latencies[label], 90)
            for label in labels),
        "goodput_MiBps": stats.payload_bytes / elapsed / 2 ** 20,
    }


def _configs(env, stats):
    """Per-config latency percentiles with sample counts and, on
    bulk-array, FIG5 goodput (2 x array bytes / p50 round trip)."""
    out = {}
    for label in _labels_with_samples(stats):
        values = stats.latencies[label]
        entry = {"samples": len(values),
                 "p50_us": metrics.percentile_us(values, 50),
                 "p90_us": metrics.percentile_us(values, 90),
                 "p99_us": metrics.percentile_us(values, 99)}
        if env.echo_bytes:
            entry["goodput_MiBps"] = \
                2 * env.echo_bytes / (entry["p50_us"] * 1e-6) / 2 ** 20
        out[label] = entry
    return out


def _per_layer(env, scaled, calls, tracer, layer_counts):
    """Per-layer metrics and the diagnostics' ``(ledger_mean_us,
    layers_p50_us)``."""
    values = {name: 0.0 for name in metrics.PER_LAYER}
    configs = _configs(env, scaled[False])
    labels = [label for label in configs if scaled[True].latencies[label]]
    values["trace.latency_p50_us"] = metrics.geomean(
        metrics.percentile_us(scaled[True].latencies[label], 50)
        for label in labels)
    values["trace.overhead_ratio"] = values["trace.latency_p50_us"] \
        / metrics.geomean(configs[label]["p50_us"] for label in labels)
    values["latency_p50_us.nexus"] = configs["nexus"]["p50_us"]
    for label, entry in configs.items():
        if "goodput_MiBps" in entry:
            values[f"goodput_MiBps.{label}"] = entry["goodput_MiBps"]

    # the ledger, each call scaled by its slice's host-speed factor
    if not calls:
        raise RuntimeError("no traced call was kept")
    ledgers = []
    waits = []
    for call in calls:
        owners, present, wait = ledger.attribute(call)
        owners = {row: t / call.factor * 1e6 for row, t in owners.items()}
        ledgers.append((owners, present | {ledger.UNATTRIBUTED},
                        (call.t1 - call.t0) / call.factor * 1e6))
        waits.append(wait / call.factor * 1e6)
    n = len(calls)
    table = {}
    for owners, _present, _e2e in ledgers:
        for row, us in owners.items():
            table[row] = table.get(row, 0.0) + us / n
    mean_e2e = sum(e2e for _o, _p, e2e in ledgers) / n
    closure = sum(table.values()) - mean_e2e
    if abs(closure) > 1e-6 * mean_e2e:
        raise RuntimeError(f"ledger does not close: {closure:+.3f} us")
    unknown = set(table) - set(metrics.LEDGER_ROWS)
    if unknown:
        raise RuntimeError(f"ledger rows without a metric: {sorted(unknown)}")
    table = dict(sorted(table.items()))
    table["e2e"] = mean_e2e

    def p50_over_crossing(rows):
        samples = [sum(owners.get(row, 0.0) for row in rows)
                   for owners, present, _e2e in ledgers
                   if not present.isdisjoint(rows)]
        return float(np.median(samples)) if samples else 0.0

    for name, rows in metrics.LAYER_TIMES.items():
        values[name] = p50_over_crossing(rows)
    for name, rows in metrics.LAYER_SHARES.items():
        values[name] = sum(table.get(row, 0.0) for row in rows) / mean_e2e
    values["nexus.endpoint.call_wait_us"] = float(np.median(waits))
    detail = {name: p50_over_crossing((row,))
              for row, name in metrics.LEDGER_ROWS.items()
              if any(row in present for _o, present, _e in ledgers)}

    # counts
    counts = tracer.counts
    if counts["gp_invokes"]:
        values["core.gp.select_protocol.calls"] = \
            counts["select_calls"] / counts["gp_invokes"]
    if counts["cap_bytes_in"]:
        values["core.capabilities.bytes_ratio"] = \
            counts["cap_bytes_out"] / counts["cap_bytes_in"]
    values["nexus.endpoint.inflight_max"] = tracer.inflight_max
    sent = touched = payload = 0
    for call in calls:
        for layer, _s, _e, nbytes, _f in call.spans + call.other:
            if layer in metrics.LAYER_TIMES["transport.send_us"]:
                sent += nbytes
            if layer in ("serialization.dumps", "serialization.loads",
                         "nexus.rsr.encode") \
                    or layer.startswith("core.capabilities.") \
                    or layer in metrics.LAYER_TIMES["transport.send_us"]:
                touched += nbytes
        payload += 2 * call.nbytes
    values["transport.bytes_per_call"] = sent / n
    if payload:
        values["copies.bytes_per_payload_byte"] = touched / payload
    for name, value in layer_counts.items():
        values[name] = value
    return values, table, detail
