"""Unit tests for histograms and the metrics registry."""

from __future__ import annotations

from repro.derive.stats import DeriveStats
from repro.observe.metrics import Histogram, Metrics, bucket_floor, bucket_label


class TestBucketing:
    def test_exact_below_sixteen(self):
        for v in range(16):
            assert bucket_floor(v) == v

    def test_power_of_two_floors_above(self):
        assert bucket_floor(16) == 16
        assert bucket_floor(31) == 16
        assert bucket_floor(32) == 32
        assert bucket_floor(63) == 32
        assert bucket_floor(1000) == 512

    def test_negatives_clamp_to_zero(self):
        assert bucket_floor(-5) == 0

    def test_labels(self):
        assert bucket_label(7) == "7"
        assert bucket_label(16) == "16-31"
        assert bucket_label(512) == "512-1023"


class TestHistogram:
    def test_observe_updates_exact_stats(self):
        h = Histogram("fuel")
        for v in (3, 3, 20, 7):
            h.observe(v)
        assert h.count == 4
        assert h.total == 33
        assert (h.min, h.max) == (3, 20)
        assert h.mean == 33 / 4
        assert h.buckets == {3: 2, 7: 1, 16: 1}

    def test_empty_histogram(self):
        h = Histogram("x")
        assert h.mean == 0.0
        assert "no observations" in h.render()

    def test_render_has_bar_per_bucket(self):
        h = Histogram("sizes")
        for v in (1, 1, 1, 2):
            h.observe(v)
        text = h.render()
        assert "sizes: n=4" in text
        assert text.count("|") == 2  # one row per bucket

    def test_as_dict_json_shape(self):
        h = Histogram("d")
        h.observe(40)
        d = h.as_dict()
        assert d["buckets"] == {"32": 1}
        assert d["count"] == 1 and d["min"] == d["max"] == 40


class TestMetrics:
    def test_histograms_created_on_first_use(self):
        m = Metrics()
        h = m.histogram("a")
        assert m.histogram("a") is h
        assert set(m.histograms) == {"a"}

    def test_counters(self):
        m = Metrics()
        m.inc("spans")
        m.inc("spans", 4)
        assert m.counter_snapshot() == {"spans": 5}

    def test_bind_stats_merges_under_prefix(self):
        m = Metrics()
        stats = DeriveStats()
        stats.backtracks += 3
        m.bind_stats(stats)
        snap = m.counter_snapshot()
        assert snap["stats.backtracks"] == 3
        # Live binding: later counting shows in later snapshots.
        stats.backtracks += 1
        assert m.counter_snapshot()["stats.backtracks"] == 4

    def test_bind_stats_carries_transform_counters(self):
        # The functionalization counters ride the same prefix, so an
        # observe report shows how much work the pass removed.
        m = Metrics()
        stats = DeriveStats()
        stats.functionalized_calls += 2
        m.bind_stats(stats)
        snap = m.counter_snapshot()
        assert snap["stats.functionalized_calls"] == 2

    def test_as_dict_sections(self):
        m = Metrics()
        m.histogram("h").observe(1)
        m.inc("c")
        m.gauge("g", 3)
        d = m.as_dict()
        assert set(d) == {"histograms", "counters", "gauges"}
        assert "h" in d["histograms"] and d["counters"]["c"] == 1
        assert d["gauges"]["g"] == 3
