"""Failure detection: liveness probes over the control surface.

A distributed runtime with migration and load balancing needs to know
which contexts are alive before it ships objects to them.  The
:class:`HealthMonitor` probes contexts through the same ``hpc.control``
``ping`` every GP can issue, keeps a rolling verdict per target, and
integrates with the balancer: ``LoadBalancer(..., health=monitor)``
refuses to migrate onto a context whose last probe failed.

Probes are synchronous and cheap (one tiny control RSR); under
simulation they cost deterministic virtual time like everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.context import CONTROL_HANDLER, Context
from repro.core.objref import ProtocolEntry
from repro.core.protocol import get_proto_class
from repro.exceptions import HpcError

__all__ = ["HealthMonitor", "ProbeResult"]


@dataclass(frozen=True)
class ProbeResult:
    """One liveness probe outcome."""

    context_id: str
    alive: bool
    rtt: float                 # seconds by the prober's clock
    error: Optional[str] = None


class HealthMonitor:
    """Probe remote contexts for liveness from a home context.

    ``home`` supplies the clock, transports, and placement the probes
    run under.  Targets register by context (the common case inside one
    runtime) or by an explicit nexus :class:`ProtocolEntry` (for remote
    runtimes discovered via ORs).
    """

    def __init__(self, home: Context, probe_timeout: float = 2.0,
                 peers=None):
        self.home = home
        self.probe_timeout = probe_timeout
        #: The :class:`repro.core.peers.PeerTable` whose breakers probe
        #: verdicts feed, so a dead peer's breakers open (and a
        #: recovered peer's breakers close) without burning request
        #: retries.  Defaults to the home context's table.
        self.peers = peers if peers is not None else home.peers
        self.last: Dict[str, ProbeResult] = {}
        self._targets: Dict[str, ProtocolEntry] = {}

    # -- registration -----------------------------------------------------

    def watch_context(self, ctx: Context) -> None:
        """Watch a context of the same runtime via its nexus addresses."""
        _shm, net_addrs = ctx._address_entries()
        entry = ProtocolEntry("nexus", ctx._base_proto_data(net_addrs))
        # The entry describes the *target's* placement.
        self._targets[ctx.id] = entry

    def watch_entry(self, context_id: str, entry: ProtocolEntry) -> None:
        self._targets[context_id] = entry.clone()

    def unwatch(self, context_id: str) -> None:
        self._targets.pop(context_id, None)
        self.last.pop(context_id, None)

    @property
    def watched(self) -> list:
        return sorted(self._targets)

    # -- probing ---------------------------------------------------------------

    def probe(self, context_id: str) -> ProbeResult:
        entry = self._targets.get(context_id)
        if entry is None:
            raise HpcError(f"not watching context {context_id!r}")
        proto_cls = get_proto_class(entry.proto_id)
        client = proto_cls.make_client(entry, self.home)
        # Probes answer "is it alive *now*" — they must not hang for the
        # full request timeout on a wedged peer.
        client.timeout = self.probe_timeout
        started = self.home.clock.now()
        try:
            m = client.marshaller
            reply = m.loads(client.call_raw(CONTROL_HANDLER,
                                            m.dumps({"op": "ping"})))
            alive = bool(reply.get("ok")) \
                and reply.get("context_id") == context_id
            error = None if alive else \
                f"unexpected ping reply: {reply!r}"
        except Exception as exc:  # noqa: BLE001 - any failure = dead
            alive = False
            error = f"{type(exc).__name__}: {exc}"
        finally:
            client.close()
        result = ProbeResult(context_id=context_id, alive=alive,
                             rtt=self.home.clock.now() - started,
                             error=error)
        self.last[context_id] = result
        self.peers.record_probe(context_id, alive)
        return result

    def sweep(self) -> Dict[str, ProbeResult]:
        """Probe every watched context; returns the verdict map."""
        return {cid: self.probe(cid) for cid in self.watched}

    def is_alive(self, context_id: str) -> bool:
        """Last known verdict; unknown contexts default to alive (the
        balancer will find out on the next sweep)."""
        result = self.last.get(context_id)
        return True if result is None else result.alive
