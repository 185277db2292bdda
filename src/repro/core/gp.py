"""Global pointers (§3.1).

"An Open HPC++ GP contains an OR representing a remote server object.  As
different GPs to a single server object may contain ORs with different
protocol tables, the GPs may support different communication protocols."

A :class:`GlobalPointer` is the client proxy:

* **selection per request** — every invocation re-runs protocol selection
  against the GP's own OR copy and proto-pool ("the system selects an
  appropriate proto-object for each individual remote request", §3.2);
  connected proto-objects are cached per table entry so repeated use of
  the same choice does not reconnect;
* **migration adaptivity** — a MOVED reply updates the OR in place and
  re-selects, which is how Figure 4's protocol sequence happens without
  any client code changes;
* **dynamic capabilities** — ``add_capability_stack`` negotiates a new
  glue stack with the server's control surface and prepends the entry to
  this GP's table (capabilities "can also be changed dynamically", §1);
* **openness** — ``pool``, ``policy``, and the OR's ``protocols`` list
  are public and mutable; ``select_protocol`` exposes the decision;
* **resilience** — transport failures are retried under a
  :class:`~repro.core.resilience.RetryPolicy` with *protocol failover*:
  the failed entry is demoted for the rest of the call and selection
  re-runs, so the next applicable table entry carries the retry — the
  ordered protocol table *is* the redundancy the paper promises.  A
  failed row also sits in a *penalty box* for ``penalty_seconds``, so
  later calls skip a dead replica row instead of re-paying its doomed
  first attempt (breakers cannot isolate one row of a merged replica
  table — every row shares a proto_id).  Per-``(context, proto)``
  circuit breakers shed flapping peers before they burn retry budget,
  and an idempotence guard refuses to re-issue a request that may have
  reached dispatch unless the method is marked ``retry_safe``;
* **shared retry budget** — every backoff retry must also be covered by
  the peer's token bucket in the GP's
  :class:`~repro.core.peers.PeerTable`, so N concurrent
  ``invoke_async`` calls against one flapping peer share one bounded
  retry pool instead of multiplying load N-fold;
* **hedged requests** — for ``retry_safe`` methods under an enabled
  :class:`~repro.core.resilience.HedgePolicy`, a primary attempt that
  outlives the tracked latency percentile is raced by a second attempt
  on the next-best applicable table entry; the first reply wins and the
  loser's connection is torn down.  This exploits the adaptive protocol
  table *before* the timeout instead of after it.

Thread-safety: ``invoke_async`` runs ``_invoke`` on the context's shared
executor, so the invoke path snapshots the OR (identity, interface, and
protocol table) once per logical call under ``self._lock``; all table
mutators (``update_reference``, ``add_capability_stack``,
``drop_protocol``) swap in *new* lists under the same lock rather than
editing the published one in place.
"""

from __future__ import annotations

import threading
from concurrent.futures import FIRST_COMPLETED, Future
from concurrent.futures import wait as _await_futures
from typing import Any, Dict, List, Optional, Tuple

from repro.admission.deadline import ambient_deadline
from repro.core.context import CONTROL_HANDLER, Context, Placement
from repro.core.instrumentation import GLOBAL_HOOKS, HookBus
from repro.core.objref import ObjectReference, ProtocolEntry
from repro.core.protocol import ProtocolClient, get_proto_class
from repro.core.proto_pool import ProtocolPool
from repro.core.request import Invocation, encode_invocation
from repro.core.resilience import (
    AttemptRecord,
    HedgePolicy,
    RetryPolicy,
    sleep_on,
)
from repro.core.selection import FirstMatchPolicy, Locality, SelectionPolicy
from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    HpcError,
    InterfaceError,
    NoApplicableProtocolError,
    ObjectMovedError,
    OverloadError,
    ProtocolError,
    RemoteInvocationError,
    RetryBudgetExhaustedError,
    RetryExhaustedError,
    TransportError,
    UnknownProtocolError,
)
from repro.idl.stubs import make_stub_class

__all__ = ["GlobalPointer"]

#: Bound on MOVED-forwarding hops per invocation; a cycle of forwarding
#: records would otherwise loop forever.
MAX_FORWARD_HOPS = 8


class GlobalPointer:
    """Client proxy for one remote object."""

    def __init__(self, oref: ObjectReference, context: Context,
                 pool: Optional[ProtocolPool] = None,
                 policy: Optional[SelectionPolicy] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 peers=None,
                 hedge_policy: Optional[HedgePolicy] = None,
                 priority: int = 0):
        self.oref = oref.clone()
        self.context = context
        self.pool = pool if pool is not None else context.proto_pool.clone()
        self.policy = policy or FirstMatchPolicy()
        #: Retry/backoff/deadline policy for this GP's invocations.
        self.retry_policy = retry_policy or RetryPolicy()
        #: Per-peer breakers, retry budgets, pushback and latency;
        #: defaults to the context-wide table so every GP talking to the
        #: same peer shares its history.
        self.peers = peers if peers is not None else context.peers
        #: Hedging policy; None falls back to the context-wide default.
        self.hedge_policy = hedge_policy
        #: Admission class stamped on every request from this GP
        #: (0 interactive / 1 batch / 2 best-effort); the server's
        #: admission queue orders and sheds by it.
        self.priority = priority
        # Cached clients, keyed by the id() of their table entry.  The
        # entry itself is kept in the value so the id can never be
        # recycled by the allocator while the client is cached.
        self._clients: Dict[int, Tuple[ProtocolEntry, ProtocolClient]] = {}
        #: Sticky demotion across calls: id(entry) -> clock time until
        #: which the entry is skipped by selection.  Breakers are keyed
        #: by (context, proto) and so cannot isolate one dead replica in
        #: a merged table where every row shares a proto_id; the penalty
        #: box is per-row, so a crashed node stops taxing every call
        #: with a doomed first attempt, yet is re-probed after the TTL.
        self._penalties: Dict[int, float] = {}
        #: How long one failed table row stays penalized (seconds).
        self.penalty_seconds = 1.0
        self._lock = threading.RLock()
        self._closed = False
        #: Futures of in-flight ``invoke_async`` calls, drained by close.
        self._inflight: set = set()
        #: Per-GP observability hooks; GLOBAL_HOOKS fires as well.
        self.hooks = HookBus()

    def _emit(self, kind: str, **data) -> None:
        data.setdefault("object_id", self.oref.object_id)
        self.hooks.emit(kind, **data)
        GLOBAL_HOOKS.emit(kind, **data)

    # ------------------------------------------------------------------
    # placement & selection
    # ------------------------------------------------------------------

    @staticmethod
    def _placement_of(protocols: List[ProtocolEntry]) -> Placement:
        if not protocols:
            raise RemoteInvocationError("OR has an empty protocol table")
        return Placement.from_wire(protocols[0].proto_data)

    def server_placement(self) -> Placement:
        with self._lock:
            protocols = list(self.oref.protocols)
        return self._placement_of(protocols)

    def locality(self) -> Locality:
        return self.context.placement.locality_to(self.server_placement())

    def _entry_applicable(self, entry: ProtocolEntry,
                          locality: Locality) -> bool:
        proto_cls = get_proto_class(entry.proto_id)
        return proto_cls.applicable(entry, locality, self.context)

    def _snapshot(self) -> ObjectReference:
        """The OR to run one logical invocation against.

        ``_invoke`` works exclusively on this snapshot; mutators swap
        ``self.oref`` (or its ``protocols`` list) wholesale under the
        lock, so a snapshot is never edited behind a running call.
        """
        with self._lock:
            if self._closed:
                raise HpcError(
                    f"GlobalPointer to {self.oref.object_id} is closed")
            return ObjectReference(
                object_id=self.oref.object_id,
                context_id=self.oref.context_id,
                interface=self.oref.interface,
                protocols=list(self.oref.protocols),
                version=self.oref.version)

    def _select(self, context_id: str, protocols: List[ProtocolEntry],
                _demoted=frozenset(),
                _ignore_penalties: bool = False) -> ProtocolEntry:
        """Protocol selection over one table snapshot.

        Entries whose ``(context, proto)`` circuit breaker is open are
        shed; ``_demoted`` holds ``id()``\\ s of entries that already
        failed during the current invocation, so a retry falls through
        to the next table row.  Entries sitting in the penalty box
        (failed within the last ``penalty_seconds``) are skipped too —
        unless skipping them leaves nothing, in which case selection
        reruns ignoring penalties so a fully-penalized table degrades to
        plain retry behaviour instead of failing outright.  If selection
        fails *because* of open breakers, the error is a
        :class:`CircuitOpenError` rather than a plain
        no-applicable-protocol failure.
        """
        locality = self.context.placement.locality_to(
            self._placement_of(protocols))
        now = self.context.clock.now()
        shed = []
        penalized = []

        def usable(entry: ProtocolEntry) -> bool:
            if id(entry) in _demoted:
                return False
            if not _ignore_penalties and self._penalties:
                expiry = self._penalties.get(id(entry))
                if expiry is not None:
                    if expiry <= now:
                        self._penalties.pop(id(entry), None)
                    else:
                        penalized.append(entry.proto_id)
                        return False
            if not self.peers.allow(context_id, entry.proto_id):
                shed.append(entry.proto_id)
                return False
            return self._entry_applicable(entry, locality)

        try:
            return self.policy.select(protocols, self.pool.ids(),
                                      locality, usable)
        except NoApplicableProtocolError as exc:
            if penalized:
                return self._select(context_id, protocols,
                                    _demoted=_demoted,
                                    _ignore_penalties=True)
            if shed and not _demoted:
                raise CircuitOpenError(
                    "all applicable protocols shed by open breakers: "
                    f"{sorted(set(shed))}") from exc
            raise

    def select_protocol(self, _demoted=frozenset()) -> ProtocolEntry:
        """Run protocol selection for the current placement/pool state."""
        with self._lock:
            context_id = self.oref.context_id
            protocols = list(self.oref.protocols)
        return self._select(context_id, protocols, _demoted)

    @property
    def selected_proto_id(self) -> str:
        """Which protocol the next request would use (for inspection)."""
        return self.select_protocol().proto_id

    def describe_selection(self) -> str:
        """Human-readable account of the choice (glue entries include
        their capability types) — the open-implementation peephole."""
        entry = self.select_protocol()
        if entry.proto_id == "glue":
            caps = "+".join(d.get("type", "?")
                            for d in entry.proto_data.get("capabilities", []))
            return f"glue[{caps}]"
        return entry.proto_id

    def _client_for(self, entry: ProtocolEntry) -> ProtocolClient:
        key = id(entry)
        with self._lock:
            cached = self._clients.get(key)
            if cached is None:
                proto_cls = get_proto_class(entry.proto_id)
                client = proto_cls.make_client(entry, self.context)
                self._clients[key] = (entry, client)
                return client
            return cached[1]

    def _fresh_client(self, entry: ProtocolEntry) -> ProtocolClient:
        """An uncached client (hedge legs get their own connection so a
        racing attempt can never interleave frames with the primary's)."""
        proto_cls = get_proto_class(entry.proto_id)
        return proto_cls.make_client(entry, self.context)

    def _penalize(self, entry: ProtocolEntry) -> None:
        """Put a failed table row in the penalty box: selection skips it
        until the TTL lapses (or a later success clears it early)."""
        if self.penalty_seconds > 0:
            self._penalties[id(entry)] = \
                self.context.clock.now() + self.penalty_seconds

    def _evict_client(self, entry: ProtocolEntry) -> None:
        """Drop the cached client for an entry whose channel died (or
        lost a hedge race), so the next use of that entry redials
        instead of reusing a broken connection."""
        with self._lock:
            cached = self._clients.pop(id(entry), None)
        if cached is not None:
            try:
                cached[1].close()
            except Exception:  # noqa: BLE001 - already broken
                pass

    # ------------------------------------------------------------------
    # invocation
    # ------------------------------------------------------------------

    def _may_retry(self, oref: ObjectReference, method: str,
                   dispatched: bool) -> bool:
        """The idempotence guard: a request that provably never left
        this host is always retryable; one that may have reached
        dispatch is retried only for ``retry_safe`` methods (or under a
        ``retry_unsafe`` policy)."""
        if not dispatched or self.retry_policy.retry_unsafe:
            return True
        spec = oref.interface.methods.get(method)
        return bool(spec is not None and spec.retry_safe)

    def _select_for_attempt(self, context_id: str, protocols, demoted: set,
                            attempts) -> ProtocolEntry:
        """Selection for one attempt; when every entry has been demoted
        during this call, the demotion slate is wiped and the whole
        table becomes eligible again (the retry budget, not the table
        length, bounds the loop)."""
        try:
            return self._select(context_id, protocols, _demoted=demoted)
        except CircuitOpenError as exc:
            exc.attempts = list(attempts)
            raise
        except NoApplicableProtocolError:
            if not demoted:
                raise
            demoted.clear()
            try:
                return self._select(context_id, protocols)
            except CircuitOpenError as exc:
                exc.attempts = list(attempts)
                raise

    # -- hedging ---------------------------------------------------------------

    def _hedge_policy_for(self, oref: ObjectReference, method: str,
                          oneway: bool) -> Optional[HedgePolicy]:
        """The hedge policy governing this call, or None.

        Only ``retry_safe`` methods may be hedged — a hedge is by
        construction a duplicate dispatch, exactly what the idempotence
        guard exists to prevent for unsafe methods.
        """
        if oneway:
            return None
        policy = self.hedge_policy if self.hedge_policy is not None \
            else getattr(self.context, "hedge_policy", None)
        if policy is None or not policy.enabled:
            return None
        spec = oref.interface.methods.get(method)
        if spec is None or not spec.retry_safe:
            return None
        return policy

    def _hedge_entry(self, context_id: str, protocols, primary: ProtocolEntry,
                     demoted: set) -> ProtocolEntry:
        """The next-best applicable entry to race against ``primary``;
        falls back to ``primary`` itself (over a fresh connection) when
        the table holds no alternative."""
        try:
            return self._select(context_id, protocols,
                                _demoted=frozenset(demoted) | {id(primary)})
        except (NoApplicableProtocolError, CircuitOpenError):
            return primary

    def _attempt(self, oref: ObjectReference, context_id: str, protocols,
                 entry: ProtocolEntry, client: ProtocolClient,
                 invocation: Invocation, method: str,
                 demoted: set) -> Tuple[Any, float]:
        """Run one attempt, hedged when the policy calls for it.

        Returns ``(result, effective latency seconds)``.  Failures
        propagate (the primary leg's error when both legs fail) so the
        caller's retry/failover machinery stays in charge.
        """
        clock = self.context.clock
        policy = self._hedge_policy_for(oref, method, invocation.oneway)
        delay = None
        # Racing a *second* request at a server that just pushed back is
        # anti-cooperative; hold hedging until the retry-after window
        # has passed.
        if policy is not None \
                and not self.peers.pushback_remaining(context_id):
            delay = policy.hedge_delay(
                self.peers.latency(context_id, entry.proto_id))
        if delay is None:
            started = clock.now()
            result = client.invoke(invocation)
            return result, clock.now() - started
        if self.context.sim is not None:
            return self._hedged_sim(context_id, protocols, entry, client,
                                    invocation, method, demoted, delay)
        return self._hedged_wall(context_id, protocols, entry, client,
                                 invocation, method, demoted, delay)

    def _hedged_sim(self, context_id: str, protocols, entry: ProtocolEntry,
                    client: ProtocolClient, invocation: Invocation,
                    method: str, demoted: set,
                    delay: float) -> Tuple[Any, float]:
        """Hedging in the synchronous virtual world.

        The simulator runs one attempt at a time, so the race is
        resolved *counterfactually*: run the primary, and if its virtual
        duration exceeded the hedge delay — i.e. the hedge would have
        launched — run the hedge leg too and settle on what a concurrent
        world would have seen: ``min(d_primary, delay + d_hedge)``.  The
        global clock still pays for both legs (hedges are real extra
        load), but the *call's* effective latency, the ``request`` event
        duration, and the latency tracker all reflect the winner — which
        is what makes seeded tail-latency assertions meaningful.
        """
        clock = self.context.clock
        started = clock.now()
        primary_exc: Optional[Exception] = None
        result = None
        try:
            result = client.invoke(invocation)
        except (TransportError, ProtocolError) as exc:
            primary_exc = exc
        primary_latency = clock.now() - started
        if primary_latency <= delay:
            # The hedge would never have launched; surface the primary
            # outcome unchanged (failures go to the normal retry loop).
            if primary_exc is not None:
                raise primary_exc
            return result, primary_latency
        hedge_entry = self._hedge_entry(context_id, protocols, entry,
                                        demoted)
        self._emit("hedge", method=method, proto_id=entry.proto_id,
                   hedge_proto=hedge_entry.proto_id, delay=delay)
        hedge_client = self._fresh_client(hedge_entry)
        hedge_started = clock.now()
        hedge_exc: Optional[Exception] = None
        hedge_result = None
        try:
            hedge_result = hedge_client.invoke(invocation)
        except (TransportError, ProtocolError) as exc:
            hedge_exc = exc
        finally:
            try:
                hedge_client.close()
            except Exception:  # noqa: BLE001 - loser teardown
                pass
        hedged_latency = delay + (clock.now() - hedge_started)
        if hedge_exc is None and (primary_exc is not None
                                  or hedged_latency < primary_latency):
            self.peers.record_success(context_id, hedge_entry.proto_id)
            self._emit("hedge_win", method=method,
                       proto_id=hedge_entry.proto_id,
                       primary_proto=entry.proto_id,
                       latency=hedged_latency,
                       primary_latency=None if primary_exc is not None
                       else primary_latency)
            return hedge_result, hedged_latency
        if primary_exc is not None:
            # Both legs failed: the primary error drives retry/failover.
            raise primary_exc
        if hedge_exc is not None:
            self.peers.record_failure(context_id, hedge_entry.proto_id)
        self._emit("hedge_loss", method=method, proto_id=entry.proto_id,
                   hedge_proto=hedge_entry.proto_id,
                   latency=primary_latency)
        return result, primary_latency

    def _hedged_wall(self, context_id: str, protocols, entry: ProtocolEntry,
                     client: ProtocolClient, invocation: Invocation,
                     method: str, demoted: set,
                     delay: float) -> Tuple[Any, float]:
        """Hedging over real transports: a genuine two-leg race on the
        context's hedge executor.  First reply wins; the loser's client
        is closed so its connection (and thread) unwind promptly."""
        clock = self.context.clock
        executor = self.context.hedge_executor
        started = clock.now()
        primary = executor.submit(client.invoke, invocation)
        done, _ = _await_futures([primary], timeout=delay)
        if primary in done:
            return primary.result(), clock.now() - started
        hedge_entry = self._hedge_entry(context_id, protocols, entry,
                                        demoted)
        self._emit("hedge", method=method, proto_id=entry.proto_id,
                   hedge_proto=hedge_entry.proto_id, delay=delay)
        hedge_client = self._fresh_client(hedge_entry)
        hedge = executor.submit(hedge_client.invoke, invocation)

        def abandon(future: Future, loser_close) -> None:
            future.cancel()

            def reap(f: Future) -> None:
                try:
                    f.exception()
                except Exception:  # noqa: BLE001 - incl. CancelledError
                    pass
                loser_close()
            future.add_done_callback(reap)

        outcomes: Dict[Future, Optional[BaseException]] = {}
        pending = {primary, hedge}
        while pending:
            done, pending = _await_futures(pending,
                                           return_when=FIRST_COMPLETED)
            for future in done:
                outcomes[future] = future.exception()
            if outcomes.get(primary, False) is None:
                # Primary succeeded: it wins ties by construction.
                self._emit("hedge_loss", method=method,
                           proto_id=entry.proto_id,
                           hedge_proto=hedge_entry.proto_id,
                           latency=clock.now() - started)
                if hedge not in outcomes:
                    abandon(hedge, lambda: _close_quietly(hedge_client))
                else:
                    _close_quietly(hedge_client)
                return primary.result(), clock.now() - started
            if outcomes.get(hedge, False) is None:
                latency = clock.now() - started
                self.peers.record_success(context_id, hedge_entry.proto_id)
                self._emit("hedge_win", method=method,
                           proto_id=hedge_entry.proto_id,
                           primary_proto=entry.proto_id, latency=latency,
                           primary_latency=None)
                result = hedge.result()
                _close_quietly(hedge_client)
                if primary not in outcomes:
                    # Tear the primary's connection down so its thread
                    # unwinds; the next use of the entry redials.
                    abandon(primary, lambda: self._evict_client(entry))
                return result, latency
            if hedge in outcomes and outcomes[hedge] is not None:
                self.peers.record_failure(context_id, hedge_entry.proto_id)
        # Both legs failed: surface the primary error to the retry loop.
        _close_quietly(hedge_client)
        raise outcomes[primary]

    # -- batching --------------------------------------------------------------

    def batch(self):
        """An explicit batching scope: queue invocations, flush them as
        one multi-request wire record on exit.  Deterministic in both
        real and simulated worlds (see
        :class:`~repro.core.batching.BatchScope`)."""
        from repro.core.batching import BatchScope

        return BatchScope(self)

    def _maybe_coalesce(self, oref: ObjectReference,
                        invocation: Invocation):
        """Enqueue this call on the peer's coalescer when transparent
        batching applies; returns the member future, or None for the
        direct path (policy off, simulated world, oversized payload, or
        a selection failure the direct path should surface itself)."""
        policy = getattr(self.context, "batch_policy", None)
        if policy is None or not policy.enabled \
                or self.context.sim is not None:
            return None
        try:
            entry = self._select(oref.context_id, oref.protocols)
            client = self._client_for(entry)
            payload = encode_invocation(client.marshaller, invocation)
        except HpcError:
            return None
        if len(payload) > policy.max_item_bytes:
            return None
        coalescer = self.context.peers.coalescer(
            self.context, oref.context_id, entry.proto_id)
        self._emit("selection", proto_id=entry.proto_id, entry=entry,
                   method=invocation.method)
        # Oneway calls flush eagerly: the caller will not wait out a
        # window, and a process exiting right after a oneway must not
        # leave the batch (its own call included) stranded.
        return coalescer.submit(self, oref, entry, client, invocation,
                                payload, eager=invocation.oneway)

    # -- the recovery loop -----------------------------------------------------

    def _invoke(self, method: str, args: tuple,
                oneway: bool = False, _no_batch: bool = False) -> Any:
        oref = self._snapshot()
        # Fail fast on interface violations without a round trip.
        if method not in oref.interface.methods:
            raise InterfaceError(
                f"interface {oref.interface.name!r} does not expose "
                f"{method!r}")
        policy = self.retry_policy
        clock = self.context.clock
        # The call's absolute deadline: the tighter of the policy's
        # per-call budget and any ambient deadline this thread is
        # dispatching under, so a nested invoke made from a servant
        # inherits the caller's *shrunken* remainder rather than a
        # fresh full budget.
        deadline = None if policy.deadline is None \
            else clock.now() + policy.deadline
        inherited = ambient_deadline()
        if inherited is not None:
            deadline = inherited if deadline is None \
                else min(deadline, inherited)
        invocation = Invocation(object_id=oref.object_id,
                                method=method, args=tuple(args),
                                oneway=oneway, priority=self.priority,
                                deadline=deadline)
        if not _no_batch:
            member = self._maybe_coalesce(oref, invocation)
            if member is not None:
                return member.result()
        context_id = oref.context_id
        # The shared per-peer retry budget: the first attempt is offered
        # load and deposits; only retries withdraw.
        self.peers.deposit(context_id)
        attempts: list = []
        demoted: set = set()          # id(entry) failed during this call
        failed_entry: Optional[ProtocolEntry] = None
        failures = 0
        hops = 0
        while True:
            entry = self._select_for_attempt(context_id, oref.protocols,
                                             demoted, attempts)
            if failed_entry is not None and entry is not failed_entry:
                self._emit("failover", method=method,
                           from_proto=failed_entry.proto_id,
                           to_proto=entry.proto_id, attempt=failures + 1)
            client = self._client_for(entry)
            self._emit("selection", proto_id=entry.proto_id, entry=entry,
                       method=method)
            started = clock.now()
            try:
                result, duration = self._attempt(
                    oref, context_id, oref.protocols, entry, client,
                    invocation, method, demoted)
            except ObjectMovedError as moved:
                if moved.forward is None:
                    raise
                hops += 1
                if hops >= MAX_FORWARD_HOPS:
                    raise RemoteInvocationError(
                        f"object {oref.object_id} still moving after "
                        f"{MAX_FORWARD_HOPS} forwarding hops")
                self._emit("moved", forward=moved.forward,
                           from_context=context_id,
                           to_context=moved.forward.context_id)
                self.update_reference(moved.forward)
                # Patch the context's resolver cache: every cached
                # alias of this object follows the forwarding notice,
                # so sibling GPs resolving by name skip the stale hop.
                resolver = getattr(self.context, "resolver", None)
                if resolver is not None:
                    resolver.note_moved(oref.object_id, moved.forward)
                # New OR, new table: re-snapshot, demotions no longer
                # apply, and retries now charge the new peer's budget.
                oref = self._snapshot()
                context_id = oref.context_id
                demoted.clear()
                failed_entry = None
                continue
            except (TransportError, ProtocolError) as exc:
                if isinstance(exc, (UnknownProtocolError,
                                    NoApplicableProtocolError)):
                    raise  # configuration errors, not link failures
                self._emit("request", method=method,
                           proto_id=entry.proto_id, outcome="error",
                           error=exc, duration=clock.now() - started)
                overload = isinstance(exc, OverloadError)
                if overload:
                    # Pushback, not failure: the peer *answered* — it is
                    # alive but saturated.  No breaker strike, no client
                    # eviction (the channel is healthy), and no entry
                    # demotion (every table entry reaches the same
                    # saturated server); just note the hint so every GP
                    # bound to this peer backs off and stops hedging.
                    self.peers.note_pushback(context_id, exc.retry_after)
                else:
                    self.peers.record_failure(context_id, entry.proto_id)
                    self._evict_client(entry)
                    self._penalize(entry)
                failures += 1
                dispatched = bool(
                    getattr(exc, "request_sent", False)
                    or getattr(exc, "request_dispatched", False))
                attempts.append(AttemptRecord(
                    attempt=failures, proto_id=entry.proto_id,
                    error=f"{type(exc).__name__}: {exc}",
                    at=clock.now(), dispatched=dispatched))
                if not isinstance(exc, TransportError):
                    # Deterministic protocol-level failure (bad address
                    # list, unusable entry): retrying the same entry
                    # cannot help, and neither can waiting.  Fail over
                    # to the next table entry if one exists; otherwise
                    # surface the original error, not RetryExhausted.
                    demoted.add(id(entry))
                    failed_entry = entry
                    try:
                        self._select(context_id, oref.protocols,
                                     _demoted=demoted)
                    except (NoApplicableProtocolError, CircuitOpenError):
                        raise exc from None
                    continue
                if not self._may_retry(oref, method, dispatched):
                    raise
                if failures >= policy.max_attempts:
                    raise RetryExhaustedError(
                        f"invocation of {method!r} on "
                        f"{oref.object_id} failed after {failures} "
                        f"attempts", attempts) from exc
                pause = policy.backoff(failures)
                if overload:
                    # Honour the server's retry-after hint: never come
                    # back sooner than it asked, even if backoff is
                    # still short this early in the call.
                    pause = max(pause, exc.retry_after)
                if deadline is not None and clock.now() + pause > deadline:
                    raise DeadlineExceededError(
                        f"deadline of {policy.deadline}s exceeded after "
                        f"{failures} attempts on {method!r}",
                        attempts) from exc
                if not self.peers.try_withdraw(context_id):
                    self._emit("budget_exhausted", method=method,
                               context_id=context_id,
                               proto_id=entry.proto_id, attempt=failures,
                               tokens=self.peers.row(context_id).tokens)
                    raise RetryBudgetExhaustedError(
                        f"shared retry budget for peer {context_id!r} "
                        f"exhausted after {failures} attempt(s) on "
                        f"{method!r} (retrying would amplify load)",
                        attempts) from exc
                if not overload:
                    demoted.add(id(entry))
                    failed_entry = entry
                self._emit("retry", method=method,
                           proto_id=entry.proto_id, attempt=failures,
                           backoff=pause, error=exc)
                sleep_on(clock, pause)
                continue
            except Exception as exc:
                self._emit("request", method=method,
                           proto_id=entry.proto_id, outcome="error",
                           error=exc, duration=clock.now() - started)
                raise
            self.peers.record_success(context_id, entry.proto_id, duration)
            self._penalties.pop(id(entry), None)
            self._emit("request", method=method, proto_id=entry.proto_id,
                       outcome="ok", duration=duration)
            return result

    def invoke(self, method: str, *args) -> Any:
        """Synchronous remote invocation."""
        return self._invoke(method, args)

    def invoke_oneway(self, method: str, *args) -> None:
        """Fire-and-forget invocation (no reply, errors are dropped)."""
        self._invoke(method, args, oneway=True)

    def invoke_async(self, method: str, *args) -> "Future[Any]":
        """Asynchronous invocation.

        Real transports run on the *context's* shared worker pool (one
        pool per context, not four threads per GP); simulated contexts
        execute inline (the virtual world is synchronous) and return an
        already-completed future, preserving the calling convention.
        """
        if self.context.sim is not None:
            future: Future = Future()
            try:
                future.set_result(self._invoke(method, args))
            except BaseException as exc:  # noqa: BLE001
                future.set_exception(exc)
            return future
        with self._lock:
            if self._closed:
                raise HpcError(
                    f"GlobalPointer to {self.oref.object_id} is closed")
        future = self.context.executor.submit(self._invoke, method, args)
        with self._lock:
            self._inflight.add(future)
        future.add_done_callback(self._inflight.discard)
        return future

    # ------------------------------------------------------------------
    # adaptivity
    # ------------------------------------------------------------------

    def update_reference(self, new_oref: ObjectReference) -> None:
        """Adopt a new OR (migration notice or out-of-band refresh)."""
        if new_oref.object_id != self.oref.object_id:
            raise HpcError("replacement OR names a different object")
        clone = new_oref.clone()
        with self._lock:
            victims = list(self._clients.values())
            self._clients.clear()
            self._penalties.clear()
            self.oref = clone
        for _entry, client in victims:
            _close_quietly(client)

    def add_capability_stack(self, descriptors, *, prefer: bool = True,
                             applicability: Optional[str] = None) -> None:
        """Negotiate a new capability stack with the server and graft the
        resulting glue entry onto this GP's protocol table."""
        nexus_entry = self.oref.entry("nexus")
        if nexus_entry is None:
            raise HpcError(
                "dynamic capabilities need a plain nexus entry to carry "
                "the control request")
        client = self._client_for(nexus_entry)
        m = client.marshaller
        request = {"op": "make_glue",
                   "capabilities": [dict(d) for d in descriptors]}
        if applicability:
            request["applicability"] = applicability
        reply = m.loads(client.call_raw(CONTROL_HANDLER, m.dumps(request)))
        if not reply.get("ok"):
            raise HpcError(f"server refused capability stack: "
                           f"{reply.get('error')}")
        entry = ProtocolEntry.from_wire(reply["entry"])
        with self._lock:
            protocols = list(self.oref.protocols)
            if prefer:
                protocols.insert(0, entry)
            else:
                protocols.append(entry)
            self.oref.protocols = protocols

    def drop_protocol(self, proto_id: str) -> None:
        """Remove every entry of the given protocol from this GP's OR
        and close the cached clients those entries were holding open —
        a dropped protocol must not keep leaking live connections."""
        with self._lock:
            kept: List[ProtocolEntry] = []
            victims: List[ProtocolClient] = []
            for entry in self.oref.protocols:
                if entry.proto_id == proto_id:
                    cached = self._clients.pop(id(entry), None)
                    if cached is not None:
                        victims.append(cached[1])
                else:
                    kept.append(entry)
            self.oref.protocols = kept
        for client in victims:
            _close_quietly(client)

    # ------------------------------------------------------------------
    # ergonomics
    # ------------------------------------------------------------------

    def narrow(self):
        """A typed stub over this GP's interface: remote calls read like
        local ones."""
        stub_cls = make_stub_class(self.oref.interface)
        return stub_cls(
            lambda method, args, oneway: self._invoke(method, args, oneway),
            self.oref.interface)

    def dup(self) -> ObjectReference:
        """A copy of the OR suitable for handing to another process —
        the capability-passing mechanism of §4."""
        return self.oref.clone()

    def ping(self) -> dict:
        """Control-surface liveness probe of the serving context."""
        entry = self.oref.entry("nexus") or self.oref.protocols[0]
        client = self._client_for(entry)
        m = client.marshaller
        return m.loads(client.call_raw(CONTROL_HANDLER,
                                       m.dumps({"op": "ping"})))

    def _close_clients(self) -> None:
        with self._lock:
            victims = list(self._clients.values())
            self._clients.clear()
        for _entry, client in victims:
            _close_quietly(client)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, wait: bool = True) -> None:
        """Close this GP: drain in-flight async calls, then close the
        cached clients.

        Futures that have not started yet are cancelled; running ones
        are waited for (``wait=False`` skips the drain), so an in-flight
        ``invoke_async`` completes normally instead of dying with a
        confusing transport error when its connection is yanked.  After
        close, any invocation raises a clear :class:`HpcError`.

        Any batch still coalescing toward this GP's peer is flushed
        first — calls enqueued in an un-expired window must complete,
        not vanish with the connection.
        """
        if not self._closed:
            self.context.peers.flush(self.oref.context_id)
        with self._lock:
            if self._closed:
                inflight: list = []
            else:
                self._closed = True
                inflight = list(self._inflight)
        for future in inflight:
            future.cancel()
        if wait and inflight:
            _await_futures(inflight)
        self._close_clients()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<GlobalPointer {self.oref.object_id}@"
                f"{self.oref.context_id} table={self.oref.proto_ids()}>")


def _close_quietly(client: ProtocolClient) -> None:
    try:
        client.close()
    except Exception:  # noqa: BLE001 - teardown of a possibly-dead link
        pass
