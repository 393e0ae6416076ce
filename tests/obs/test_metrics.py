"""Unit tests for the metrics registry."""

from __future__ import annotations

import pytest

from repro.obs import Counter, Histogram, MetricsRegistry
from repro.obs.metrics import exact_percentile


class TestCounter:
    def test_keyed_increments(self):
        counter = Counter("smtp.replies")
        counter.inc("250")
        counter.inc("250")
        counter.inc("550", amount=3)
        assert counter.total == 5
        assert counter.by_key() == {"250": 2.0, "550": 3.0}

    def test_unkeyed_increments(self):
        counter = Counter("exec.probes")
        counter.inc(amount=7)
        assert counter.total == 7
        assert counter.to_dict() == {"total": 7.0}


class TestHistogram:
    def test_percentiles_are_exact(self):
        histogram = Histogram("dns.queries_per_probe")
        for value in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]:
            histogram.observe(float(value))
        assert histogram.percentile(0) == 1.0
        # Nearest-rank: the value at rank ceil(0.5 * 10) = 5.
        assert histogram.percentile(50) == 5.0
        assert histogram.percentile(100) == 10.0
        d = histogram.to_dict()
        assert d["count"] == 10
        assert d["min"] == 1.0 and d["max"] == 10.0
        assert d["mean"] == 5.5

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 10, 11, 21, 40])
    @pytest.mark.parametrize("p", [50, 90, 99])
    def test_percentiles_are_nearest_rank(self, n, p):
        """Every percentile path picks the value at rank ceil(p/100 * n)
        (e.g. n=4 at p50 is the 2nd value, not the 3rd)."""
        values = [float(v) for v in range(1, n + 1)]
        histogram = Histogram("h")
        for value in reversed(values):
            histogram.observe(value)
        expected = values[max(1, -(-p * n // 100)) - 1]
        assert histogram.percentile(p) == expected
        assert histogram.to_dict()[f"p{p}"] == expected
        assert exact_percentile(values, p / 100) == expected

    def test_empty_histogram(self):
        histogram = Histogram("empty")
        assert histogram.percentile(50) == 0.0
        assert histogram.to_dict() == {"count": 0}


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.gauge("g") is registry.gauge("g")

    def test_to_dict_is_sorted_and_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("b").inc("y")
        registry.counter("a").inc()
        registry.histogram("h").observe(1.0)
        registry.gauge("g").set(2.5)
        d = registry.to_dict()
        assert list(d["counters"]) == ["a", "b"]
        assert d["gauges"]["g"] == {"value": 2.5}
        assert d["histograms"]["h"]["count"] == 1

    def test_render_markdown_has_counter_and_histogram_tables(self):
        registry = MetricsRegistry()
        registry.counter("smtp.replies").inc("250")
        registry.histogram("exec.backoff_seconds").observe(60.0)
        text = registry.render_markdown()
        assert "| counter | total | top keys |" in text
        assert "smtp.replies" in text and "250=1" in text
        assert "| histogram | count |" in text
        assert "exec.backoff_seconds" in text
