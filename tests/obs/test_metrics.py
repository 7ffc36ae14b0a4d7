"""Tests for counters, gauges and streaming histograms."""

import math
import tracemalloc

import pytest

from repro.obs import MetricsRegistry
from repro.obs.metrics import Histogram


class TestCounterGauge:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        c = registry.counter("hits")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        g = registry.gauge("depth")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7

    def test_same_name_and_labels_share_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("net.frames", bus="can0")
        b = registry.counter("net.frames", bus="can0")
        c = registry.counter("net.frames", bus="can1")
        assert a is b
        assert a is not c

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        a = registry.counter("x", alpha=1, beta=2)
        b = registry.counter("x", beta=2, alpha=1)
        assert a is b

    def test_full_name_rendering(self):
        registry = MetricsRegistry()
        c = registry.counter("net.frames", bus="can0")
        assert c.full_name == "net.frames{bus=can0}"
        assert registry.counter("plain").full_name == "plain"

    def test_counter_and_histogram_namespaces_are_separate(self):
        registry = MetricsRegistry()
        c = registry.counter("latency")
        h = registry.histogram("latency")
        assert c is not h
        assert len(registry) == 2


class TestHistogramQuantiles:
    def test_uniform_quantiles_within_bucket_error(self):
        registry = MetricsRegistry()
        h = registry.histogram("resp", growth=1.1)
        for i in range(1, 1001):
            h.observe(float(i))
        assert h.count == 1000
        assert h.min == 1.0
        assert h.max == 1000.0
        # log-bucketed estimate: relative error bounded by the growth factor
        assert h.quantile(0.50) == pytest.approx(500.0, rel=0.12)
        assert h.quantile(0.95) == pytest.approx(950.0, rel=0.12)
        assert h.quantile(0.99) == pytest.approx(990.0, rel=0.12)

    def test_quantile_extremes_clamp_to_observed_range(self):
        registry = MetricsRegistry()
        h = registry.histogram("resp")
        for v in (0.5, 1.0, 2.0, 4.0):
            h.observe(v)
        assert h.quantile(1.0) == 4.0
        assert h.quantile(0.0) <= 0.5 * 1.1

    def test_zero_and_negative_values(self):
        registry = MetricsRegistry()
        h = registry.histogram("jitter")
        for _ in range(90):
            h.observe(0.0)
        for _ in range(10):
            h.observe(1.0)
        assert h.count == 100
        assert h.quantile(0.5) == 0.0
        assert h.quantile(0.99) == pytest.approx(1.0, rel=0.12)

    def test_empty_histogram(self):
        registry = MetricsRegistry()
        h = registry.histogram("empty")
        assert h.quantile(0.5) == 0.0
        snap = h.snapshot()
        assert snap["count"] == 0
        assert snap["p99"] == 0.0

    def test_memory_is_bounded_by_dynamic_range(self):
        # 100k samples across 6 decades must not allocate 100k buckets.
        registry = MetricsRegistry()
        h = registry.histogram("wide")
        for i in range(100_000):
            h.observe(1e-3 * (1 + (i % 1000)) * (10 ** (i % 4)))
        assert h.count == 100_000
        assert len(h._buckets) < 400

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Histogram("x", (), True, growth=1.0)
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("x").quantile(1.5)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_is_refused_without_a_trace(self, value):
        registry = MetricsRegistry()
        h = registry.histogram("lat", core="c0")
        for v in (0.5, 0.0, -1.0, 0.5):
            h.observe(v)
        h.snapshot()
        h.observe(0.25)

        def slots():
            return (h.count, h.min, h.max, dict(h._pending), list(h._partials),
                    dict(h._buckets), h._zero_count)

        before = slots()
        with pytest.raises(ValueError, match=r"lat\{core=c0\}"):
            h.observe(value)
        assert slots() == before
        assert h.snapshot()["count"] == 5

    def test_mean_sum(self):
        registry = MetricsRegistry()
        h = registry.histogram("m")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.sum == 6.0
        assert h.mean == pytest.approx(2.0)


class TestRegistryLifecycle:
    def test_disabled_instruments_are_noops(self):
        registry = MetricsRegistry(enabled=False)
        c = registry.counter("hits")
        h = registry.histogram("lat")
        g = registry.gauge("depth")
        c.inc()
        h.observe(1.0)
        g.set(5.0)
        assert c.value == 0
        assert h.count == 0
        assert g.value == 0

    def test_enable_flips_existing_handles(self):
        registry = MetricsRegistry(enabled=False)
        c = registry.counter("hits")
        c.inc()
        registry.enable()
        c.inc()
        assert c.value == 1
        registry.disable()
        c.inc()
        assert c.value == 1

    def test_disabled_hot_path_allocates_nothing(self):
        # Cached handles on a disabled registry must not allocate per call.
        registry = MetricsRegistry(enabled=False)
        c = registry.counter("hits")
        h = registry.histogram("lat")
        # warm up (bytecode caches, etc.)
        for _ in range(10):
            c.inc()
            h.observe(0.5)
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for _ in range(1000):
            c.inc()
            h.observe(0.5)
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        grown = [
            s for s in after.compare_to(before, "lineno")
            if s.size_diff > 0
            and s.traceback[0].filename.endswith("obs/metrics.py")
        ]
        assert grown == []

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("hits", svc="a").inc(3)
        registry.gauge("depth").set(2)
        registry.histogram("lat").observe(0.25)
        snap = registry.snapshot()
        assert snap["counter"]["hits{svc=a}"]["value"] == 3
        assert snap["gauge"]["depth"]["value"] == 2
        assert snap["histogram"]["lat"]["count"] == 1

    def test_render_mentions_every_instrument(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.histogram("lat").observe(1.0)
        text = registry.render()
        assert "hits" in text
        assert "lat" in text
        assert MetricsRegistry().render() == "metrics: empty"
