"""Host-speed probe and CPU pinning, kept free of heavy imports so a
set-up probe process can use them before it imports anything else.

The benchmark runs on small shared hosts whose CPU and memory speed
drift by up to a third for seconds to minutes as neighbours load them.
:func:`calibrate` times a fixed piece of work that involves no ORB code;
dividing measured times by :func:`host_factor` of the probes taken
around them reports them as if measured on a host of fixed speed.
"""

from __future__ import annotations

import os
import statistics
import time

__all__ = ["REF_CAL_S", "calibrate", "host_factor", "pin"]

#: The probe: a pure-Python loop and a few 1 MiB copies ...
CAL_ITERATIONS = 8000
CAL_COPIES = 4
_CAL_BUFFER = bytearray(1 << 20)
#: ... and how long it takes on the reference host (seconds).
REF_CAL_S = 1.0e-3


def calibrate() -> float:
    """Seconds one run of the probe takes right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc += i * i % 7
    for _ in range(CAL_COPIES):
        bytes(_CAL_BUFFER)
    return time.perf_counter() - start


def host_factor(samples) -> float:
    """Probe median over the reference time: above 1 on a slow host.
    Times are divided by it, rates multiplied."""
    return statistics.median(samples) / REF_CAL_S


def pin() -> None:
    """Keep this process, every thread it starts and every process it
    spawns later on the first CPU it may use.

    Unpinned, the scheduler spreads the ORB's threads over the CPUs of a
    small host at its whim, and every cross-CPU wake-up is slow: on two
    CPUs small-call p50 flipped between about 250 and 550 us from one
    process to the next, and with the ``tcp-pipelined`` server on the
    other CPU calls/s ranged over 1.3-2.0 k between runs."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
