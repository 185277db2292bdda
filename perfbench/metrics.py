"""Metric names and units, shared by the runner and the self-test.

``BENCHMARK.json`` at the repository root lists the same names; the
self-test checks that the two agree and that a run prints each of them.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["END_TO_END", "PER_LAYER", "CONFIGS", "LEDGER_ROWS",
           "LAYER_TIMES", "LAYER_SHARES", "geomean", "percentile_us"]

#: Protocol configurations a workload can drive, as FIG5 names them.
CONFIGS = ("nexus", "shm", "glue-quota", "glue-quota-encryption")

#: End-to-end metrics (``--trace 0``), every workload.
END_TO_END = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_p90_us": "us",
    "goodput_MiBps": "MiB/s",
}

#: Ledger row (owner of call time) -> the name its p50 is printed under
#: in the diagnostics (``layers_p50_us``), for the calls that crossed it.
LEDGER_ROWS = {
    "idl.stub": "idl.stub.self_us",
    "core.gp": "core.gp.self_us",
    "core.protocol": "core.protocol.self_us",
    "core.glue": "core.glue.self_us",
    "core.glue.server": "core.glue.server_us",
    "core.capabilities.quota": "core.capabilities.quota.us",
    "core.capabilities.encryption": "core.capabilities.encryption.us",
    "core.request.encode": "core.request.encode_us",
    "core.request.decode": "core.request.decode_us",
    "serialization.dumps": "serialization.dumps_us",
    "serialization.loads": "serialization.loads_us",
    "nexus.rsr.encode": "nexus.rsr.encode_us",
    "nexus.rsr.decode": "nexus.rsr.decode_us",
    "nexus.endpoint.client": "nexus.endpoint.client_us",
    "nexus.endpoint.hop": "nexus.endpoint.hop_wait_us",
    "transport.inproc.send": "transport.inproc.send_us",
    "transport.inproc.recv": "transport.inproc.recv_us",
    "transport.shm.send": "transport.shm.send_us",
    "transport.shm.recv": "transport.shm.recv_us",
    "transport.tcp.send": "transport.tcp.send_us",
    "transport.tcp.recv": "transport.tcp.recv_us",
    "admission.queue_wait": "admission.queue_wait_us",
    "core.context.dispatch": "core.context.dispatch_self_us",
    "servant": "servant.us",
    "unattributed": "unattributed_us",
}

_SENDS = ("transport.inproc.send", "transport.shm.send", "transport.tcp.send")
_RECVS = ("transport.inproc.recv", "transport.shm.recv", "transport.tcp.recv")

#: Per-layer times every workload crosses: metric -> the ledger rows it
#: sums per call; reported as the p50 over calls, in us.  Layers only
#: some workloads cross (glue, capabilities, admission, one transport
#: kind) are reported as shares below and in full in the diagnostics.
LAYER_TIMES = {
    "idl.stub.self_us": ("idl.stub",),
    "core.gp.self_us": ("core.gp",),
    "core.protocol.self_us": ("core.protocol",),
    "core.request.encode_us": ("core.request.encode",),
    "core.request.decode_us": ("core.request.decode",),
    "serialization.dumps_us": ("serialization.dumps",),
    "serialization.loads_us": ("serialization.loads",),
    "nexus.rsr.encode_us": ("nexus.rsr.encode",),
    "nexus.rsr.decode_us": ("nexus.rsr.decode",),
    "nexus.endpoint.client_us": ("nexus.endpoint.client",),
    "nexus.endpoint.hop_wait_us": ("nexus.endpoint.hop",),
    "transport.send_us": _SENDS,
    "transport.recv_us": _RECVS,
    "core.context.dispatch_self_us": ("core.context.dispatch",),
    "servant.us": ("servant",),
    "unattributed_us": ("unattributed",),
}

#: Shares of the mean traced latency: metric -> ledger rows.
LAYER_SHARES = {
    "unattributed_share": ("unattributed",),
    "core.glue.share": ("core.glue", "core.glue.server",
                        "core.capabilities.quota",
                        "core.capabilities.encryption"),
    "admission.queue_wait_share": ("admission.queue_wait",),
}

#: Per-layer metrics (``--trace 1``), every workload.
PER_LAYER = {name: "us" for name in LAYER_TIMES}
PER_LAYER.update({name: "ratio" for name in LAYER_SHARES})
PER_LAYER.update({
    "nexus.endpoint.call_wait_us": "us",
    "nexus.endpoint.inflight_max": "count",
    "core.gp.select_protocol.calls": "count",
    "core.capabilities.bytes_ratio": "ratio",
    "transport.bytes_per_call": "B",
    "copies.bytes_per_payload_byte": "ratio",
    "admission.admitted": "count",
    "admission.shed": "count",
    "admission.max_depth": "count",
    "admission.limit": "count",
    "admission.adjustments": "count",
    "trace.latency_p50_us": "us",
    "trace.overhead_ratio": "ratio",
    "latency_p50_us.nexus": "us",
    "goodput_MiBps.nexus": "MiB/s",
    "goodput_MiBps.shm": "MiB/s",
    "goodput_MiBps.glue-quota": "MiB/s",
    "goodput_MiBps.glue-quota-encryption": "MiB/s",
})


def percentile_us(samples, q: float) -> float:
    """The ``q``-th percentile of latencies in seconds, in us."""
    return float(np.percentile(np.asarray(samples), q)) * 1e6


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))
