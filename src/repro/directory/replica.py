"""One replica of the replicated object directory.

:class:`DirectoryReplica` is an ordinary exported servant: its election
heartbeats and log replication are ``@remote_method`` calls carried by
GlobalPointers over the existing invoke path, so everything the ORB
already gives that path — capability glue, admission control, breakers,
the simulator's virtual time — applies to directory traffic unchanged.

The consensus protocol is a lease-based simplification of Raft:

* **terms** — monotonically increasing epochs; every message carries
  one, and a higher term always wins;
* **randomized election timeouts** — drawn from a per-replica seeded
  :class:`~repro.security.prng.Pcg32` stream, so simnet runs are
  bit-identical while real clusters still avoid split votes;
* **votes** — granted once per term, only to candidates whose log is at
  least as up to date (``(last_term, last_seq)`` order);
* **leader lease** — a leader serves writes only while a quorum of
  followers acknowledged a heartbeat within ``lease_seconds``; when the
  lease lapses it steps down (``lease_expired``) instead of serving
  writes it can no longer commit;
* **quorum writes** — a bind/rebind/unbind appends to the leader's
  binding log and is acknowledged to the client only after a majority
  of replicas hold *that entry* (a lagging follower acking a partial
  catch-up batch does not count, ``quorum_write``); followers replay
  the log tail carried by heartbeats, truncating any divergent suffix;
* **committed reads** — entries reach the binding table only as the
  commit index passes them, so ``resolve`` never serves a write the
  client was told failed, nor a follower's divergent uncommitted
  suffix.

Time is *passive*: nothing here sleeps or schedules.  A driver calls
:meth:`tick` — the simnet harness as it advances virtual time, a
background thread (:meth:`start_ticking`) on real processes — which
keeps a replica deterministic under simulation and live on the wall
clock with the same code.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from repro.core.objref import ObjectReference
from repro.core.peers import PeerTable
from repro.core.resilience import RetryPolicy
from repro.directory.state import (
    OP_BIND,
    OP_REBIND,
    OP_UNBIND,
    DirectoryState,
    LogEntry,
    check_name,
)
from repro.exceptions import HpcError
from repro.idl.interface import remote_interface, remote_method

__all__ = ["DirectoryReplica", "FOLLOWER", "CANDIDATE", "LEADER"]

FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"

#: Entries shipped per heartbeat when a follower is catching up.
CATCHUP_BATCH = 256


@remote_interface("DirectoryReplica")
class DirectoryReplica:
    """One member of a directory replica group.

    Parameters
    ----------
    ctx:
        The serving context; supplies the clock and binds peer GPs (so
        peer traffic takes this context's ordinary invoke path).
    node_id:
        Stable name within the group (votes and redirects carry it).
    seed / stream:
        Seed material for the election-timeout RNG.  Same seed + same
        stream => same timeout sequence, the determinism contract.
    lease_seconds:
        How long a quorum heartbeat keeps the leader's write lease.
    heartbeat_seconds:
        Leader heartbeat period; must be well under ``lease_seconds``.
    election_timeout:
        ``(lo, hi)`` bounds for the randomized follower timeout; ``lo``
        must exceed ``heartbeat_seconds`` or healthy followers will
        campaign against a live leader.
    """

    def __init__(self, ctx, node_id: str, *, seed: int = 0,
                 stream: int = 0, lease_seconds: float = 1.2,
                 heartbeat_seconds: float = 0.3,
                 election_timeout: Tuple[float, float] = (0.6, 1.2),
                 hooks=None):
        from repro.core.instrumentation import GLOBAL_HOOKS
        from repro.security.prng import Pcg32

        lo, hi = election_timeout
        if not 0 < heartbeat_seconds < lease_seconds:
            raise ValueError("need 0 < heartbeat < lease")
        if not heartbeat_seconds < lo <= hi:
            raise ValueError("election timeout must exceed heartbeat")
        self.ctx = ctx
        self.node_id = node_id
        self.clock = ctx.clock
        self.hooks = hooks if hooks is not None else GLOBAL_HOOKS
        self.lease_seconds = lease_seconds
        self.heartbeat_seconds = heartbeat_seconds
        self.election_timeout = (lo, hi)
        self._rng = Pcg32(seed, stream=stream)

        self.state = DirectoryState()
        self.term = 0
        self.role = FOLLOWER
        self.voted_for: Optional[str] = None
        self.leader_id: str = ""
        self._lease_until = -1.0
        self._next_heartbeat = -1.0
        self._election_deadline = self.clock.now() + self._draw_timeout()
        self._peers: Dict[str, object] = {}       # node_id -> GP
        self._match: Dict[str, int] = {}          # node_id -> acked seq
        self._commit_seq = 0
        self._lock = threading.RLock()
        self._ticker: Optional[threading.Thread] = None
        self._stop = threading.Event()
        #: Set by :meth:`stop`; drivers skip stopped replicas (a crashed
        #: replica's frozen fields must not read as a live leader).
        self.stopped = False

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def set_peers(self, peer_orefs: Dict[str, ObjectReference],
                  *, call_deadline: Optional[float] = None) -> None:
        """Bind a GP to every *other* replica in the group.

        Peer calls use single-attempt retry policies: the election and
        lease machinery *is* the retry layer here — a missed heartbeat
        must surface as a missed heartbeat, not dissolve into backoff.
        """
        deadline = call_deadline if call_deadline is not None \
            else self.lease_seconds
        # Peer breakers cool down at heartbeat cadence, not the
        # context-wide default: after a partition heals, the next
        # heartbeat must be able to probe the peer immediately — a
        # 30-second breaker hold would keep a healed group split long
        # after the network recovered.
        peers = PeerTable(self.clock, cooldown=self.heartbeat_seconds)
        with self._lock:
            self._close_peers()
            for node_id, oref in peer_orefs.items():
                if node_id == self.node_id:
                    continue
                gp = self.ctx.bind(
                    oref.clone(),
                    peers=peers,
                    retry_policy=RetryPolicy(max_attempts=1,
                                             deadline=deadline))
                self._peers[node_id] = gp
                self._match[node_id] = 0

    def _close_peers(self) -> None:
        for gp in self._peers.values():
            try:
                gp.close(wait=False)
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
        self._peers.clear()
        self._match.clear()

    @property
    def quorum(self) -> int:
        """Majority of the full group (peers + self)."""
        return (len(self._peers) + 1) // 2 + 1

    def _draw_timeout(self) -> float:
        lo, hi = self.election_timeout
        return lo + self._rng.uniform() * (hi - lo)

    def _emit(self, kind: str, **data) -> None:
        self.hooks.emit(kind, **data)

    # ------------------------------------------------------------------
    # the tick: all time-driven behaviour
    # ------------------------------------------------------------------

    def tick(self) -> None:
        """Advance the replica's timers; never blocks on time itself.

        Outbound RPCs happen *outside* the lock: replicas call each
        other synchronously, and two replicas ticking concurrently while
        holding their own locks would deadlock on each other's handlers.
        """
        with self._lock:
            role = self.role
            now = self.clock.now()
            if role == LEADER:
                if now >= self._lease_until:
                    self._step_down(self.term, reason="lease")
                    return
                if now < self._next_heartbeat:
                    return
                plan = self._replication_plan()
            else:
                if now < self._election_deadline:
                    return
                plan = None
        if plan is not None:
            self._run_heartbeat(plan)
        else:
            self._run_election()

    # -- election ------------------------------------------------------

    def _run_election(self) -> None:
        with self._lock:
            self.term += 1
            self.role = CANDIDATE
            self.voted_for = self.node_id
            self.leader_id = ""
            self._election_deadline = self.clock.now() + self._draw_timeout()
            term = self.term
            last_seq = self.state.last_seq
            last_term = self.state.last_term
            peers = list(self._peers.items())
            needed = self.quorum
        votes = 1  # self
        for node_id, gp in peers:
            try:
                reply = gp.invoke("request_vote", term, self.node_id,
                                  last_seq, last_term)
            except HpcError:
                continue
            if reply.get("term", 0) > term:
                with self._lock:
                    self._step_down(reply["term"], reason="stale_term")
                return
            if reply.get("granted"):
                votes += 1
        with self._lock:
            if self.term != term or self.role != CANDIDATE:
                return  # a newer leader/term appeared mid-election
            if votes < needed:
                return  # stay candidate; timeout fires the next round
            self.role = LEADER
            self.leader_id = self.node_id
            now = self.clock.now()
            # The vote quorum itself establishes the first lease window:
            # a majority just promised not to elect anyone else for at
            # least their own election timeout (> lease_seconds is not
            # guaranteed, but heartbeats start immediately below).
            self._lease_until = now + self.lease_seconds
            self._next_heartbeat = now
            # Match indices restart at zero: a peer only counts as
            # holding an entry once it *acks* it this term.  (The first
            # heartbeat re-ships a batch peers likely already hold —
            # their acks snap _match to their true last_seq — which is
            # the price of never computing a commit index, or a write
            # quorum, from unverified optimism.)
            for node_id in self._match:
                self._match[node_id] = 0
            plan = self._replication_plan()
        self._emit("leader_elected", node=self.node_id, term=term,
                   votes=votes, peers=len(peers) + 1)
        self._run_heartbeat(plan)

    def _step_down(self, term: int, *, reason: str) -> None:
        """Fall back to follower at ``term`` (lock held by caller)."""
        was_leader = self.role == LEADER
        if term > self.term:
            self.term = term
            self.voted_for = None
        self.role = FOLLOWER
        if was_leader:
            self.leader_id = ""
        self._election_deadline = self.clock.now() + self._draw_timeout()
        if was_leader and reason == "lease":
            self._emit("lease_expired", node=self.node_id,
                       term=self.term)

    # -- replication ---------------------------------------------------

    def _replication_plan(self) -> List[tuple]:
        """Per-peer (node_id, gp, prev_seq, prev_term, entries) under
        the lock; the RPCs themselves run outside it."""
        plan = []
        for node_id, gp in self._peers.items():
            prev_seq = self._match.get(node_id, 0)
            entries = self.state.entries_from(prev_seq + 1, CATCHUP_BATCH)
            plan.append((node_id, gp, prev_seq,
                         self.state.term_at(prev_seq),
                         [e.to_wire() for e in entries]))
        return plan

    def _run_heartbeat(self, plan: List[tuple]) -> int:
        """Send one append_entries round; returns the ack count.

        A quorum of acks extends the lease and advances the commit
        index; a stale-term reply steps down immediately.
        """
        with self._lock:
            term = self.term
            if self.role != LEADER:
                return 0
            commit = self._commit_seq
            self._next_heartbeat = self.clock.now() + \
                self.heartbeat_seconds
        acks = 1  # self
        results = []
        for node_id, gp, prev_seq, prev_term, entries in plan:
            try:
                reply = gp.invoke("append_entries", term, self.node_id,
                                  prev_seq, prev_term, entries, commit)
            except HpcError:
                continue
            results.append((node_id, reply))
        with self._lock:
            if self.term != term or self.role != LEADER:
                return 0
            for node_id, reply in results:
                if reply.get("term", 0) > self.term:
                    self._step_down(reply["term"], reason="stale_term")
                    return 0
                peer_last = int(reply.get("last_seq", 0))
                if reply.get("ok"):
                    acks += 1
                    self._match[node_id] = peer_last
                else:
                    # Nack: rewind to where the follower actually is so
                    # the next round ships the right tail.
                    self._match[node_id] = min(
                        self._match.get(node_id, 0), peer_last)
            if acks >= self.quorum:
                self._lease_until = self.clock.now() + self.lease_seconds
                matched = sorted([self.state.last_seq] +
                                 list(self._match.values()),
                                 reverse=True)
                self._commit_seq = max(self._commit_seq,
                                       matched[self.quorum - 1])
                self.state.apply_to(self._commit_seq)
            return acks

    # ------------------------------------------------------------------
    # remote interface: consensus
    # ------------------------------------------------------------------

    @remote_method(retry_safe=True)
    def request_vote(self, term: int, candidate: str, last_seq: int,
                     last_term: int) -> dict:
        with self._lock:
            if term < self.term:
                return {"term": self.term, "granted": False}
            if term > self.term:
                self._step_down(term, reason="vote_request")
            up_to_date = (last_term, last_seq) >= \
                (self.state.last_term, self.state.last_seq)
            if self.voted_for in (None, candidate) and up_to_date:
                self.voted_for = candidate
                self._election_deadline = self.clock.now() + \
                    self._draw_timeout()
                return {"term": self.term, "granted": True}
            return {"term": self.term, "granted": False}

    @remote_method(retry_safe=True)
    def append_entries(self, term: int, leader: str, prev_seq: int,
                       prev_term: int, entries: list,
                       commit_seq: int) -> dict:
        with self._lock:
            if term < self.term:
                return {"term": self.term, "ok": False,
                        "last_seq": self.state.last_seq}
            if term > self.term or self.role != FOLLOWER:
                self._step_down(term, reason="append")
            self.leader_id = leader
            self._election_deadline = self.clock.now() + \
                self._draw_timeout()
            if prev_seq > self.state.last_seq:
                return {"term": self.term, "ok": False,
                        "last_seq": self.state.last_seq}
            if prev_seq > 0 and self.state.term_at(prev_seq) != prev_term:
                # Divergent suffix from a dead leader: drop it and let
                # the next round ship the authoritative tail.
                self.state.truncate(prev_seq - 1)
                return {"term": self.term, "ok": False,
                        "last_seq": self.state.last_seq}
            stored_all = True
            for wire in entries:
                entry = LogEntry.from_wire(wire)
                if entry.seq <= self.state.last_seq:
                    if self.state.term_at(entry.seq) != entry.term:
                        self.state.truncate(entry.seq - 1)
                        self.state.append(entry)
                    continue  # duplicate of what we already hold
                if entry.seq != self.state.last_seq + 1:
                    stored_all = False  # gap: nack, leader rewinds
                    break
                self.state.append(entry)
            # The prefix up to last_seq matches the leader's log (the
            # prev checks above passed), so the leader's commit index
            # applies to it even when the batch had a gap.
            self._commit_seq = max(self._commit_seq,
                                   min(commit_seq, self.state.last_seq))
            self.state.apply_to(self._commit_seq)
            return {"term": self.term, "ok": stored_all,
                    "last_seq": self.state.last_seq}

    # ------------------------------------------------------------------
    # remote interface: the directory itself
    # ------------------------------------------------------------------

    def _reply_base(self) -> dict:
        return {"node": self.node_id, "leader": self.leader_id,
                "term": self.term}

    @remote_method(retry_safe=True)
    def resolve(self, name: str) -> dict:
        """Typed lookup served by *any* replica, from **committed**
        state only (reads prefer availability; the per-name version
        lets caches order what different replicas said).

        ``lease_valid`` tells the client whether this answer came from
        a leader that currently holds its write lease — only such a
        miss is authoritative; a deposed leader that has not noticed
        its lease lapse yet still self-reports ``leader`` but must not
        turn a lagging view into a hard NameNotFoundError."""
        check_name(name)
        with self._lock:
            record = self.state.lookup(name)
            reply = self._reply_base()
            reply["name"] = name
            reply["lease_valid"] = (self.role == LEADER and
                                    self.clock.now() < self._lease_until)
            if record is None or record.oref is None:
                reply["found"] = False
                miss_node = self.node_id
            else:
                reply.update(found=True, oref=record.oref,
                             version=record.version)
                miss_node = None
        if miss_node is not None:
            self._emit("directory_miss", name=name, node=miss_node)
        return reply

    def _write(self, op: str, name: str,
               oref: Optional[ObjectReference]) -> dict:
        """Leader-only write path: append, replicate, ack on quorum.

        A peer counts toward the write quorum only once its acked
        ``last_seq`` covers the new entry — a lagging follower acking a
        256-entry catch-up batch that stops *short* of the entry must
        not let the client believe the write is majority-held.
        Heartbeat rounds repeat while followers are still making
        catch-up progress; the loop ends at quorum, at leadership/lease
        loss, or when a full round moves no follower (``no_quorum``).

        Non-leader and quorum-loss outcomes are *typed replies* (they
        are routine redirect/retry traffic, not exceptional), while
        validation failures (bad name, bind of a bound name) raise and
        marshal as remote exceptions."""
        with self._lock:
            now = self.clock.now()
            if self.role != LEADER or now >= self._lease_until:
                reply = self._reply_base()
                reply.update(ok=False, error="not_leader")
                return reply
            term = self.term
            entry = self.state.make_entry(term, op, name, oref)
            self.state.append(entry)
        acks = 1  # self
        while True:
            with self._lock:
                if self.term != term or self.role != LEADER or \
                        self.clock.now() >= self._lease_until:
                    reply = self._reply_base()
                    reply.update(ok=False, error="not_leader")
                    return reply
                before = dict(self._match)
                plan = self._replication_plan()
            self._run_heartbeat(plan)
            with self._lock:
                if self.term != term or self.role != LEADER:
                    reply = self._reply_base()
                    reply.update(ok=False, error="not_leader")
                    return reply
                acks = 1 + sum(1 for v in self._match.values()
                               if v >= entry.seq)
                if acks >= self.quorum:
                    # A majority stores the entry and it is from the
                    # current term: committed.  Apply before acking so
                    # the leader's own resolve path serves the write
                    # the moment the client hears ok (read-your-writes
                    # even when this round's raw ack count fell short
                    # of advancing the commit index itself).
                    self._commit_seq = max(self._commit_seq, entry.seq)
                    self.state.apply_to(self._commit_seq)
                    reply = self._reply_base()
                    break
                progressed = any(self._match.get(n, 0) != before.get(n, 0)
                                 for n in self._match)
            if not progressed:
                reply = self._reply_base()
                reply.update(ok=False, error="no_quorum", acks=acks)
                return reply
        self._emit("quorum_write", node=self.node_id, op=op,
                   name=name, version=entry.version,
                   seq=entry.seq, acks=acks)
        reply.update(ok=True, version=entry.version, seq=entry.seq)
        return reply

    @remote_method
    def bind(self, name: str, oref) -> dict:
        return self._write(OP_BIND, name, oref)

    @remote_method
    def rebind(self, name: str, oref) -> dict:
        return self._write(OP_REBIND, name, oref)

    @remote_method
    def unbind(self, name: str) -> dict:
        return self._write(OP_UNBIND, name, None)

    @remote_method
    def rebind_object(self, object_id: str, oref) -> dict:
        """Rebind every name pointing at ``object_id`` to ``oref`` —
        the migration-sweep publication: one call per moved object, and
        every alias follows."""
        with self._lock:
            if self.role != LEADER or \
                    self.clock.now() >= self._lease_until:
                reply = self._reply_base()
                reply.update(ok=False, error="not_leader")
                return reply
            names = self.state.names_for_object(object_id)
        rebound = []
        for name in names:
            reply = self._write(OP_REBIND, name, oref)
            if not reply.get("ok"):
                reply["rebound"] = rebound
                return reply
            rebound.append(name)
        reply = self._reply_base()
        reply.update(ok=True, rebound=rebound)
        return reply

    @remote_method
    def join(self, peers: dict) -> dict:
        """Install the peer table (node id → OR URI) and, on wall-clock
        contexts, start the tick thread.

        This is the real-process bootstrap: the parent spawns every
        node, collects their directory ORs, then ``join``\\ s each over
        the ordinary invoke path — no control-plane side channel.
        """
        orefs = {node: ObjectReference.from_uri(uri)
                 for node, uri in peers.items()}
        self.set_peers(orefs)
        if self.ctx.sim is None:
            self.start_ticking()
        return {"ok": True, "node": self.node_id,
                "peers": sorted(n for n in orefs if n != self.node_id)}

    @remote_method(retry_safe=True)
    def status(self) -> dict:
        with self._lock:
            reply = self._reply_base()
            reply.update(role=self.role,
                         last_seq=self.state.last_seq,
                         commit_seq=self._commit_seq,
                         lease_valid=self.role == LEADER and
                         self.clock.now() < self._lease_until,
                         names=self.state.names())
            return reply

    # ------------------------------------------------------------------
    # wall-clock driving
    # ------------------------------------------------------------------

    def start_ticking(self, interval: Optional[float] = None) -> None:
        """Drive :meth:`tick` from a daemon thread (real processes).

        Simulated replicas must *not* call this — the simnet driver
        ticks them as it advances virtual time.
        """
        import time

        if self.ctx.sim is not None:
            raise RuntimeError("simulated replicas are ticked by the "
                               "simnet driver, not a thread")
        if self._ticker is not None:
            return
        period = interval if interval is not None \
            else self.heartbeat_seconds / 3.0
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(period):
                try:
                    self.tick()
                except Exception:  # noqa: BLE001 - keep the clock alive
                    pass

        self._ticker = threading.Thread(
            target=loop, name=f"dir-tick-{self.node_id}", daemon=True)
        self._ticker.start()

    def stop(self) -> None:
        """Stop the tick thread (if any) and drop peer bindings."""
        self.stopped = True
        self._stop.set()
        ticker, self._ticker = self._ticker, None
        if ticker is not None:
            ticker.join(timeout=5.0)
        with self._lock:
            self._close_peers()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<DirectoryReplica {self.node_id} role={self.role} "
                f"term={self.term} seq={self.state.last_seq}>")
