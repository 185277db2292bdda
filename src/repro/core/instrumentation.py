"""Observability hooks: the introspective half of Open Implementation.

Kiczales' Open Implementation is two-way: applications *steer* internal
decisions (pools, OR tables, policies) and *observe* them.  This module
is the observing half — a lightweight hook bus that the GP and migration
machinery publish events to:

``selection``
    fired per request with the chosen entry (watch adaptivity happen);
``request``
    fired per completed invocation with method, protocol, outcome, and
    duration (per the context clock);
``moved``
    fired when a GP follows a MOVED forward;
``migration``
    fired by :func:`repro.core.migration.migrate` on the source context;
``retry``
    fired per retryable transport failure with the attempt number and
    the backoff about to be paid;
``failover``
    fired when a retry moves to a *different* protocol-table entry than
    the one that failed (``from_proto`` / ``to_proto``);
``breaker_open`` / ``breaker_close``
    fired by the :class:`repro.core.peers.PeerTable` when a
    ``(context, proto)`` circuit breaker trips or recovers;
``budget_exhausted``
    fired when the shared retry budget of a peer
    (:class:`~repro.core.peers.PeerTable`) refuses a retry (the flapping-peer amplification guard
    kicked in);
``hedge``
    fired when a hedged second attempt is launched for a retry-safe
    method, with the primary/hedge protocols and the latency-percentile
    trigger that fired it;
``hedge_win`` / ``hedge_loss``
    fired when the race resolves: ``hedge_win`` means the hedged
    attempt beat the primary (its latency is the call's effective
    latency), ``hedge_loss`` means the primary still won;
``fault_injected``
    fired by :class:`repro.faults.plan.FaultPlan` for every injected
    drop/delay/corrupt/disconnect/partition, so a test can line the
    recovery trail up against the faults that caused it.

Hooks attach globally (:data:`GLOBAL_HOOKS`) or per GP (``gp.hooks``).
Handlers must be cheap and must not raise; a raising handler is
detached and the error recorded, so observability can never take the
data path down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

__all__ = ["HookBus", "GLOBAL_HOOKS", "HookEvent"]


@dataclass(frozen=True)
class HookEvent:
    """One published event."""

    kind: str
    data: dict


class HookBus:
    """Named lists of event handlers with fail-safe dispatch."""

    def __init__(self):
        self._handlers: Dict[str, List[Callable[[HookEvent], Any]]] = {}
        self.errors: List[tuple] = []

    def on(self, kind: str, handler: Callable[[HookEvent], Any]) -> None:
        """Attach ``handler`` to ``kind`` events."""
        self._handlers.setdefault(kind, []).append(handler)

    def off(self, kind: str, handler) -> None:
        """Detach a handler; unknown handlers are ignored."""
        try:
            self._handlers.get(kind, []).remove(handler)
        except ValueError:
            pass

    def emit(self, kind: str, **data) -> None:
        handlers = self._handlers.get(kind)
        if not handlers:
            return
        event = HookEvent(kind=kind, data=data)
        dead = []
        for handler in handlers:
            try:
                handler(event)
            except Exception as exc:  # noqa: BLE001 - observability must
                #                        never break the data path
                self.errors.append((kind, handler, exc))
                dead.append(handler)
        for handler in dead:
            handlers.remove(handler)

    def handler_count(self, kind: str | None = None) -> int:
        if kind is not None:
            return len(self._handlers.get(kind, []))
        return sum(len(hs) for hs in self._handlers.values())

    def clear(self) -> None:
        self._handlers.clear()
        self.errors.clear()


#: Process-wide bus; per-GP buses are created on demand by the GP.
GLOBAL_HOOKS = HookBus()
