"""Model-based test of the PeerTable against plain per-peer models.

A seeded hypothesis state machine drives one calling context's table
on the simulator's virtual clock: budget deposits and withdrawals,
breaker successes, failures and probes, pushback hints, latency
observations and clock advances.  After every step the table must
agree with a plain model of each concern, the ``breaker_open`` /
``breaker_close`` events must keep the ``breakers_open`` gauge equal to
the breakers that are not closed (docs/EVENTS.md), and
``ctx.describe()`` must carry exactly the table's snapshot.
"""

import sys
import threading

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core import ORB
from repro.core import peers as peers_module
from repro.core.instrumentation import HookBus
from repro.core.peers import PeerTable
from repro.core.resilience import BreakerState
from repro.metrics.core import nearest_rank
from repro.simnet import NetworkSimulator, paper_testbed
from repro.simnet.clock import VirtualClock

PEERS = st.sampled_from(["a", "b"])
PROTOS = st.sampled_from(["nexus", "shm"])
QUANTILES = (0.0, 0.5, 0.9, 1.0)
#: A small window so a run of steps actually slides it.
WINDOW = 2

CLOSED, OPEN, HALF_OPEN = (BreakerState.CLOSED, BreakerState.OPEN,
                           BreakerState.HALF_OPEN)


class PeerTableMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self._window = peers_module.LATENCY_WINDOW
        peers_module.LATENCY_WINDOW = WINDOW
        tb = paper_testbed()
        self.orb = ORB(simulator=NetworkSimulator(tb.topology))
        self.ctx = self.orb.context("client", machine=tb.m0)
        self.clock = self.ctx.clock
        self.bus = HookBus()
        self.opens = []
        self.closes = []
        self.bus.on("breaker_open", lambda e: self.opens.append(e.data))
        self.bus.on("breaker_close", lambda e: self.closes.append(e.data))
        # Model state.
        self.rows = set()           # peers the table has a row for
        self.tokens = {}
        self.counts = {}            # peer -> [deposits, grants, refusals]
        self.until = {}             # peer -> pushback deadline
        self.breakers = {}          # (peer, proto) -> [state, failures, at]
        self.samples = {}           # (peer, proto) -> every sample sent
        self.trips = 0              # CLOSED -> OPEN transitions

    def teardown(self):
        peers_module.LATENCY_WINDOW = self._window
        self.orb.shutdown()

    @initialize(threshold=st.integers(1, 3),
                cooldown=st.sampled_from([0.0, 1.0, 2.5]),
                max_tokens=st.sampled_from([1.0, 2.5]),
                deposit=st.sampled_from([0.0, 0.3, 1.0]),
                withdraw=st.sampled_from([0.5, 1.0]))
    def build(self, threshold, cooldown, max_tokens, deposit, withdraw):
        self.threshold = threshold
        self.cooldown = cooldown
        self.max_tokens = max_tokens
        self.deposit_per_call = deposit
        self.withdraw_per_retry = withdraw
        self.table = PeerTable(self.clock, failure_threshold=threshold,
                               cooldown=cooldown, max_tokens=max_tokens,
                               deposit_per_call=deposit,
                               withdraw_per_retry=withdraw, hooks=self.bus)
        self.ctx.peers = self.table

    def _touch(self, peer):
        if peer not in self.rows:
            self.rows.add(peer)
            self.tokens[peer] = self.max_tokens
            self.counts[peer] = [0, 0, 0]
            self.until[peer] = 0.0

    # -- retry budget ----------------------------------------------------

    @rule(peer=PEERS)
    def deposit(self, peer):
        self._touch(peer)
        self.table.deposit(peer)
        self.tokens[peer] = min(self.tokens[peer] + self.deposit_per_call,
                                self.max_tokens)
        self.counts[peer][0] += 1

    @rule(peer=PEERS)
    def try_withdraw(self, peer):
        self._touch(peer)
        granted = self.tokens[peer] >= self.withdraw_per_retry
        if granted:
            self.tokens[peer] -= self.withdraw_per_retry
            self.counts[peer][1] += 1
        else:
            self.counts[peer][2] += 1
        assert self.table.try_withdraw(peer) is granted

    # -- breakers ----------------------------------------------------------

    def _model_success(self, key):
        breaker = self.breakers.setdefault(key, [CLOSED, 0, None])
        closed = breaker[0] is not CLOSED
        breaker[:] = [CLOSED, 0, None]
        return closed

    def _model_failure(self, key):
        breaker = self.breakers.setdefault(key, [CLOSED, 0, None])
        state, failures, _at = breaker
        if state is HALF_OPEN:
            breaker[0], breaker[2] = OPEN, self.clock.now()
            return True
        breaker[1] = failures + 1
        if state is CLOSED and breaker[1] >= self.threshold:
            breaker[0], breaker[2] = OPEN, self.clock.now()
            self.trips += 1
            return True
        return False

    @rule(peer=PEERS, proto=PROTOS)
    def allow(self, peer, proto):
        breaker = self.breakers.get((peer, proto))
        expected = True
        if breaker is not None and breaker[0] is OPEN:
            if self.clock.now() - breaker[2] >= self.cooldown:
                breaker[0] = HALF_OPEN
            else:
                expected = False
        assert self.table.allow(peer, proto) is expected

    @rule(peer=PEERS, proto=PROTOS)
    def success(self, peer, proto):
        self._touch(peer)
        closed = self._model_success((peer, proto))
        assert self.table.record_success(peer, proto) is closed

    @rule(peer=PEERS, proto=PROTOS)
    def failure(self, peer, proto):
        self._touch(peer)
        opened = self._model_failure((peer, proto))
        assert self.table.record_failure(peer, proto) is opened

    @rule(peer=PEERS, alive=st.booleans())
    def probe(self, peer, alive):
        for key in sorted(k for k in self.breakers if k[0] == peer):
            if alive:
                self._model_success(key)
            else:
                self._model_failure(key)
        self.table.record_probe(peer, alive)

    # -- pushback ----------------------------------------------------------

    @rule(peer=PEERS, retry_after=st.sampled_from([-0.5, 0.0, 0.3, 1.0,
                                                   5.0]))
    def note_pushback(self, peer, retry_after):
        before = self.table.row(peer).pushback_until \
            if peer in self.rows else 0.0
        self.table.note_pushback(peer, retry_after)
        if retry_after > 0:
            self._touch(peer)
            self.until[peer] = max(self.until[peer],
                                   self.clock.now() + retry_after)
        if peer in self.rows:
            assert self.table.row(peer).pushback_until >= before

    # -- latency -----------------------------------------------------------

    @rule(peer=PEERS, proto=PROTOS,
          seconds=st.floats(min_value=-1.0, max_value=10.0,
                            allow_nan=False))
    def observe(self, peer, proto, seconds):
        """A success with its duration: the only feed of the window."""
        self._touch(peer)
        closed = self._model_success((peer, proto))
        if seconds >= 0:
            self.samples.setdefault((peer, proto), []).append(seconds)
        assert self.table.record_success(peer, proto, seconds) is closed

    # -- time --------------------------------------------------------------

    @rule(dt=st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    def advance(self, dt):
        self.clock.advance(dt)

    # -- invariants --------------------------------------------------------

    @invariant()
    def budgets_match_model(self):
        for peer in self.rows:
            row = self.table.row(peer)
            assert 0.0 <= row.tokens <= self.max_tokens
            assert row.tokens == self.tokens[peer]
            assert [row.deposits, row.withdrawals, row.refusals] \
                == self.counts[peer]

    @invariant()
    def breakers_match_model(self):
        for (peer, proto), (state, failures, at) in self.breakers.items():
            breaker = self.table.row(peer).breakers[proto]
            assert breaker.state is state
            assert breaker.failures == failures
            if state is not CLOSED:
                assert breaker.opened_at == at

    @invariant()
    def events_keep_the_gauge(self):
        assert len(self.opens) == self.trips
        assert len(self.opens) - len(self.closes) \
            == len(self.table.open_keys())

    @invariant()
    def latency_matches_nearest_rank(self):
        for (peer, proto), sent in self.samples.items():
            view = self.table.latency(peer, proto)
            assert view.count == len(sent)
            window = sorted(sent[-WINDOW:])
            for q in QUANTILES:
                expected = nearest_rank(window, q) if window else None
                assert view.quantile(q) == expected

    @invariant()
    def snapshot_is_the_describe_view(self):
        snap = self.table.snapshot()
        described = self.ctx.describe()
        assert snap == {key: described[key] for key in
                        ("breakers_open", "retry_budgets", "pushback")}
        now = self.clock.now()
        assert snap["breakers_open"] == sorted(
            f"{peer}:{proto}" for (peer, proto), b in self.breakers.items()
            if b[0] is not CLOSED)
        assert snap["retry_budgets"] == self.tokens
        assert snap["pushback"] == {
            peer: round(until - now, 6)
            for peer, until in self.until.items() if until > now}


TestPeerTableModel = PeerTableMachine.TestCase
TestPeerTableModel.settings = settings(max_examples=60,
                                       stateful_step_count=40,
                                       derandomize=True, database=None,
                                       deadline=None)


def test_one_row_conserves_counts_across_threads():
    """8 threads hammer one peer's row: every deposit is counted,
    withdrawals plus refusals equal the attempts, every success's
    sample is observed, and the breaker gauge still balances."""
    threads, rounds = 8, 1000
    bus = HookBus()
    opens, closes = [], []
    bus.on("breaker_open", lambda e: opens.append(1))
    bus.on("breaker_close", lambda e: closes.append(1))
    table = PeerTable(VirtualClock(), failure_threshold=2, cooldown=0.0,
                      max_tokens=5.0, deposit_per_call=0.25, hooks=bus)
    barrier = threading.Barrier(threads)
    granted = []

    def drive(seed):
        barrier.wait()
        mine = 0
        for i in range(rounds):
            table.deposit("peer")
            mine += table.try_withdraw("peer")
            if (seed + i) % 3:
                table.record_failure("peer", "nexus")
            table.allow("peer", "nexus")
            table.record_success("peer", "nexus",
                                 (seed * rounds + i) * 1e-6)
        granted.append(mine)

    workers = [threading.Thread(target=drive, args=(n,))
               for n in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)      # interleave the threads finely
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)

    row = table.row("peer")
    attempts = threads * rounds
    assert row.deposits == attempts
    assert row.withdrawals == sum(granted)
    assert row.withdrawals + row.refusals == attempts
    assert 0.0 <= row.tokens <= 5.0
    assert table.latency("peer", "nexus").count == attempts
    assert len(opens) - len(closes) == len(table.open_keys())
