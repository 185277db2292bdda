"""Benchmark-side servants: a corrupting echo and the tcp server's control
surface.  Neither is part of the ORB; both are exported through its public
API like any application object."""

from __future__ import annotations

from repro.cluster.node import WorkUnit
from repro.idl.interface import remote_interface, remote_method

__all__ = ["CorruptWorkUnit", "BenchControl"]


class CorruptWorkUnit(WorkUnit):
    """A :class:`WorkUnit` whose echo flips the first byte of every
    non-empty array; the self-test uses it to prove that the benchmark's
    echo check catches a wrong reply."""

    def process(self, payload):
        out = super().process(payload)
        if getattr(out, "size", 0):
            out = out.copy()
            out.reshape(-1).view("u1")[0] ^= 0xFF
        return out


@remote_interface("PerfbenchControl")
class BenchControl:
    """Lets the load generator switch the server process's tracing and
    fetch its spans and admission counters."""

    def __init__(self, context, tracer, servant_cls):
        self.context = context
        self.tracer = tracer
        self.servant_cls = servant_cls

    @remote_method
    def trace(self, on):
        if on:
            self.tracer.install((self.servant_cls,))
        else:
            self.tracer.uninstall()
        return bool(on)

    @remote_method
    def collect(self) -> dict:
        snap = self.context.admission.snapshot()
        admission = {key: int(snap[key]) for key in (
            "admitted", "shed", "max_depth", "limit", "adjustments")}
        return {"admission": admission,
                "spans": self.tracer.export_spans()}
