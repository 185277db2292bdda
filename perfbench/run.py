"""Wall-clock invoke benchmark of the Open HPC++ ORB.

Usage (from the repository root)::

    python3 perfbench/run.py --workload small-rpc --seed 1 --seconds 10 --trace 0

``--workload`` is one of ``small-rpc``, ``bulk-array``, ``tcp-pipelined``
(see ``perfbench/README.md``).  ``--trace 0`` measures the end-to-end
metrics with no tracing; ``--trace 1`` alternates untraced and traced
slices and reports the per-layer ledger.  The last line of standard
output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"name": {"value": v, "unit": "u"}, ...}}

The line before it is a JSON object of diagnostics: the run context
(seed, host, nproc, Python and numpy versions, in-process or loopback
traffic), per-config percentiles with sample counts, ``failed_ratio``
and, traced, the mean ledger.  The exit code is 0 only when every reply
was correct.

The ORB is imported from ``src/`` next to this directory; without it the
command fails before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("small-rpc", "bulk-array", "tcp-pipelined")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Wall-clock invoke benchmark of the Open HPC++ ORB.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer ledger instead of end-to-end")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def result_line(correct, attempted, failed, values) -> str:
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in values.items()}})


def setup_probe(args) -> int:
    """One set-up probe process (see ``workloads.measure_setup``).  It
    pins itself and probes the host before importing anything heavy:
    the imports are part of the set-up being timed."""
    import hostspeed

    hostspeed.pin()
    calibrations = [hostspeed.calibrate() for _ in range(3)]
    sys.path.insert(0, SRC)
    import workloads

    workloads.probe_setup(args.workload, args.seed, calibrations)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no ORB sources at {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    sys.path.insert(0, SRC)
    import workloads

    correct, attempted, failed, values, diagnostics = workloads.execute(
        args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(diagnostics))
    print(result_line(correct, attempted, failed, values), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
