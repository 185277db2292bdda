"""Tests for the metric instruments and registry."""

import threading

import pytest

from repro.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
    nearest_rank,
)
from repro.simnet.clock import VirtualClock


class TestCounterGauge:
    def test_counter(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge("open")
        g.inc()
        g.inc()
        g.dec()
        assert g.value == 1.0
        g.set(7)
        assert g.value == 7.0

    def test_thread_safety(self):
        c = Counter("x")

        def spin():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 40_000


class TestNearestRank:
    def test_matches_latency_tracker_definition(self):
        xs = sorted([5.0, 1.0, 3.0, 2.0, 4.0])
        assert nearest_rank(xs, 0.0) == 1.0
        assert nearest_rank(xs, 0.5) == 3.0
        assert nearest_rank(xs, 1.0) == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            nearest_rank([], 0.5)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 1.5)

    def test_median(self):
        assert nearest_rank([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_extremes(self):
        xs = [float(x) for x in range(11)]
        assert nearest_rank(xs, 0.0) == 0.0
        assert nearest_rank(xs, 1.0) == 10.0

    def test_singleton(self):
        for q in (0.0, 0.5, 0.99, 1.0):
            assert nearest_rank([7.0], q) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nearest_rank([], 0.0)

    def test_out_of_range_q(self):
        with pytest.raises(ValueError):
            nearest_rank([1.0], -0.01)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 1.01)


class TestHistogram:
    def test_snapshot(self):
        h = Histogram("lat")
        for v in [0.1, 0.2, 0.3, 0.4]:
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["min"] == 0.1 and snap["max"] == 0.4
        assert snap["p50"] == 0.3
        assert snap["p99"] == 0.4

    def test_empty_snapshot(self):
        snap = Histogram("lat").snapshot()
        assert snap["count"] == 0
        assert snap["p50"] is None and snap["p99"] is None

    def test_sample_cap(self):
        h = Histogram("lat", max_samples=10)
        for i in range(25):
            h.observe(float(i))
        assert h.count == 25                  # totals keep counting
        assert len(h._dist._values) <= 10     # memory stays bounded


class TestTimeSeries:
    def test_buckets_on_virtual_clock(self):
        clock = VirtualClock()
        s = TimeSeries("req", clock, bucket_seconds=1.0)
        s.observe(1.0)
        clock.advance(0.5)
        s.observe(1.0)
        clock.advance(1.0)           # t=1.5 -> bucket 1
        s.observe(1.0)
        snap = s.snapshot()
        assert [b["bucket"] for b in snap] == [0, 1]
        assert snap[0]["count"] == 2
        assert snap[1]["count"] == 1
        assert snap[0]["start"] == 0.0 and snap[1]["start"] == 1.0

    def test_explicit_timestamp(self):
        s = TimeSeries("req", VirtualClock(), bucket_seconds=2.0)
        s.observe(3.0, at=5.0)
        assert s.bucket(2)["sum"] == 3.0
        assert s.bucket(0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeries("x", VirtualClock(), bucket_seconds=0)


class TestMetricsRegistry:
    def test_create_or_get(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.series("s") is reg.series("s")

    def test_snapshot_is_plain_and_comparable(self):
        def build():
            clock = VirtualClock()
            reg = MetricsRegistry(clock=clock, bucket_seconds=1.0)
            reg.counter("reqs").inc(3)
            reg.gauge("open").set(1)
            reg.histogram("lat").observe(0.25)
            reg.series("reqs").observe(1.0)
            clock.advance(1.5)
            reg.series("reqs").observe(1.0)
            return reg.snapshot()

        a, b = build(), build()
        assert a == b
        assert a["counters"]["reqs"] == 3.0
        assert a["series"]["reqs"][1]["bucket"] == 1

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {},
                                  "histograms": {}, "series": {}}
