"""Server process of the ``tcp-pipelined`` workload.

Usage: ``python3 perfbench/tcp_server.py [--corrupt-echo]``

Stands up a wall-clock ORB whose context serves over kernel TCP loopback
with admission control on at default values, exports a ``WorkUnit`` and a
:class:`~servants.BenchControl`, prints one JSON line with their TCP-only
object references (hex wire bytes), and serves until its stdin closes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corrupt-echo", action="store_true",
                        help="serve a WorkUnit whose echo flips a byte")
    args = parser.parse_args(argv)

    from repro.admission.policy import AdmissionPolicy
    from repro.cluster.node import WorkUnit, strip_to_tcp
    from repro.core import ORB

    from servants import BenchControl, CorruptWorkUnit
    from tracing import Tracer

    servant_cls = CorruptWorkUnit if args.corrupt_echo else WorkUnit
    orb = ORB()
    try:
        ctx = orb.context("perfbench-server", enable_tcp=True)
        ctx.set_admission_policy(AdmissionPolicy(enabled=True))
        work = strip_to_tcp(ctx.export(servant_cls("w")))
        tracer = Tracer()
        control = strip_to_tcp(ctx.export(
            BenchControl(ctx, tracer, servant_cls)))
        print(json.dumps({"work": work.to_bytes().hex(),
                          "control": control.to_bytes().hex()}), flush=True)
        sys.stdin.read()
        tracer.uninstall()
    finally:
        orb.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
