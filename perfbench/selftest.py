"""Self-test of the benchmark.

Usage (from the repository root)::

    python3 perfbench/selftest.py

1. ``BENCHMARK.json`` names exactly the metrics and units the runner
   reports.
2. Each workload runs briefly through ``run.py``, untraced and traced;
   every run must be correct, exit 0 and print every metric with its
   unit, and the traced run's ledger must close.
3. A servant whose echo flips a byte (``servants.CorruptWorkUnit``, on the
   benchmark's side of the ORB) makes every workload report
   ``correct: false``.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import workloads  # noqa: E402

SECONDS = "2"


def check_manifest(problems):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    declared = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    if declared != metrics.END_TO_END:
        problems.append(f"end_to_end differs: {declared} vs "
                        f"{metrics.END_TO_END}")
    declared = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    if declared != metrics.PER_LAYER:
        problems.append("per_layer differs: "
                        f"{sorted(set(declared) ^ set(metrics.PER_LAYER))}")
    names = [w["name"] for w in manifest["workloads"]]
    if tuple(names) != workloads.WORKLOADS:
        problems.append(f"workloads differ: {names}")


def check_run(workload, trace, problems):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", SECONDS, "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    tag = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        problems.append(f"{tag}: exit {proc.returncode}: "
                        f"{proc.stderr.strip()[-400:]}")
        return
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{tag}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{tag}: correct={result['correct']} "
                        f"failed={result['failed']}")
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        differ = set(printed.items()) ^ set(expected.items())
        problems.append(f"{tag}: metric names/units differ: "
                        f"{sorted(differ)}")
    if not trace:
        zero = [name for name, m in result["metrics"].items()
                if not m["value"] > 0]
        if zero:
            problems.append(f"{tag}: end-to-end metrics not positive: {zero}")
    else:
        diagnostics = json.loads(lines[-2])
        table = diagnostics["ledger_mean_us"]
        total = sum(v for k, v in table.items() if k != "e2e")
        if abs(total - table["e2e"]) > 1e-3:
            problems.append(f"{tag}: ledger {total:.3f} us != "
                            f"e2e {table['e2e']:.3f} us")
    print(f"ok   {tag}", flush=True)


def check_corrupt_echo(workload, problems):
    correct, _attempted, failed, _values, _diag = workloads.execute(
        workload, 7, 1.0, False, corrupt=True)
    if correct or not failed:
        problems.append(f"{workload}: corrupted echo not detected")
    else:
        print(f"ok   {workload} corrupted echo detected ({failed} failed)",
              flush=True)


def main() -> int:
    problems: list = []
    check_manifest(problems)
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, problems)
        check_corrupt_echo(workload, problems)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
