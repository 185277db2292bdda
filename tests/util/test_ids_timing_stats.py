"""Tests for id generation, time sources, and online statistics."""

import math
import statistics
import threading

import pytest
from hypothesis import given, strategies as st

from repro.util.ids import IdGenerator, fresh_uid
from repro.util.stats import EwmAverage, OnlineStats
from repro.util.timing import Stopwatch, WallClock


class TestIdGenerator:
    def test_prefix_and_monotonic(self):
        gen = IdGenerator("ctx")
        assert gen.next_id() == "ctx-0"
        assert gen.next_id() == "ctx-1"
        assert gen.next_int() == 2

    def test_start_offset(self):
        gen = IdGenerator("obj", start=10)
        assert gen.next_id() == "obj-10"

    def test_thread_safety(self):
        gen = IdGenerator("t")
        seen = []

        def worker():
            for _ in range(500):
                seen.append(gen.next_int())

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(seen)) == 4000

    def test_fresh_uid_unique(self):
        uids = {fresh_uid() for _ in range(100)}
        assert len(uids) == 100


class TestStopwatch:
    def test_accumulates(self):
        sw = Stopwatch()
        with sw:
            pass
        first = sw.elapsed
        with sw:
            pass
        assert sw.elapsed >= first >= 0.0

    def test_double_start_rejected(self):
        sw = Stopwatch()
        sw.start()
        with pytest.raises(RuntimeError):
            sw.start()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_reset(self):
        sw = Stopwatch()
        with sw:
            pass
        sw.reset()
        assert sw.elapsed == 0.0 and not sw.running

    def test_custom_time_source(self):
        class FakeClock:
            t = 0.0

            def now(self):
                return self.t

        clock = FakeClock()
        sw = Stopwatch(clock)
        sw.start()
        clock.t = 2.5
        assert sw.stop() == pytest.approx(2.5)

    def test_wallclock_monotone(self):
        clock = WallClock()
        a = clock.now()
        b = clock.now()
        assert b >= a


class TestOnlineStats:
    def test_empty(self):
        s = OnlineStats()
        assert s.count == 0
        assert s.variance == 0.0

    def test_single(self):
        s = OnlineStats()
        s.add(5.0)
        assert s.mean == 5.0 and s.min == 5.0 and s.max == 5.0
        assert s.stddev == 0.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=100))
    def test_matches_statistics_module(self, xs):
        s = OnlineStats()
        s.extend(xs)
        assert s.mean == pytest.approx(statistics.fmean(xs), rel=1e-9,
                                       abs=1e-6)
        assert s.variance == pytest.approx(statistics.variance(xs), rel=1e-6,
                                           abs=1e-6)
        assert s.min == min(xs) and s.max == max(xs)


class TestEwmAverage:
    def test_first_sample_initializes(self):
        ewm = EwmAverage(alpha=0.5)
        assert ewm.add(10.0) == 10.0

    def test_converges_to_constant(self):
        ewm = EwmAverage(alpha=0.5)
        for _ in range(50):
            ewm.add(3.0)
        assert ewm.value == pytest.approx(3.0)

    def test_explicit_initial(self):
        ewm = EwmAverage(alpha=0.5, initial=0.0)
        assert ewm.add(10.0) == pytest.approx(5.0)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            EwmAverage(alpha=0.0)
        with pytest.raises(ValueError):
            EwmAverage(alpha=1.5)

    def test_smoothing_bounds(self):
        ewm = EwmAverage(alpha=0.2, initial=0.0)
        ewm.add(100.0)
        assert 0.0 < ewm.value < 100.0
