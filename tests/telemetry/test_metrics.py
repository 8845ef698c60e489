"""Unit tests for the deterministic metrics pipeline."""

import json
import math

import pytest

from repro.serve.metrics import nearest_rank_percentile
from repro.telemetry import (
    BurnWindow,
    Counter,
    Gauge,
    Histogram,
    MetricRegistrationError,
    MetricsRegistry,
    slo_burn_windows,
)


class TestCounter:
    def test_accumulates_per_label_set(self):
        counter = Counter("repro_test_total", "help")
        counter.inc(shard="0")
        counter.inc(2.0, shard="0")
        counter.inc(shard="1")
        assert counter.value(shard="0") == 3.0
        assert counter.value(shard="1") == 1.0
        assert counter.value(shard="9") == 0.0

    def test_rejects_negative_increment(self):
        counter = Counter("repro_test_total", "help")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1.0)

    def test_rejects_nan_increment(self):
        counter = Counter("repro_test_total", "help")
        counter.inc(shard="0")
        with pytest.raises(ValueError, match="cannot add NaN"):
            counter.inc(math.nan, shard="0")
        assert counter.value(shard="0") == 1.0

    def test_label_order_is_canonical(self):
        counter = Counter("repro_test_total", "help")
        counter.inc(b="2", a="1")
        assert counter.value(a="1", b="2") == 1.0


class TestGauge:
    def test_last_write_wins(self):
        gauge = Gauge("repro_test_ratio", "help")
        gauge.set(0.5)
        gauge.set(0.75)
        assert gauge.value() == 0.75
        assert gauge.value(shard="0") is None


class TestHistogram:
    def test_rejects_bad_boundaries(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("repro_test_seconds", "h", (1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="finite"):
            Histogram("repro_test_seconds", "h", (1.0, math.inf))
        with pytest.raises(ValueError, match="at least one"):
            Histogram("repro_test_seconds", "h", ())

    def test_rejects_nan_observation(self):
        hist = Histogram("repro_test_seconds", "h", (1.0,))
        with pytest.raises(ValueError, match="NaN"):
            hist.observe(math.nan)

    @pytest.mark.parametrize("values", [
        [],
        [0.1, 0.2, 0.5, 1.0],                       # exactly on bounds
        [0.3, math.inf, -2.5, 0.0, 7.0],
        [-math.inf, 0.2, -0.0],
        [1, 2, 3, 0, -1],                           # ints
        [0.1 * i for i in range(50)] + [1e-17, 0.30000000000000004],
    ])
    def test_observe_many_equals_observe_loop(self, values):
        bounds = (0.1, 0.2, 0.5, 1.0)
        bulk = Histogram("repro_test_seconds", "h", bounds)
        bulk.observe(0.05, shard="0")
        bulk.observe_many(values, shard="0")
        loop = Histogram("repro_test_seconds", "h", bounds)
        loop.observe(0.05, shard="0")
        for value in values:
            loop.observe(value, shard="0")
        assert bulk.snapshot() == loop.snapshot()
        assert bulk.expose_lines() == loop.expose_lines()
        # Independent reference: first bound >= v, and a left fold.
        counts = [0] * (len(bounds) + 1)
        total = 0.0
        for value in [0.05, *values]:
            counts[next((i for i, b in enumerate(bounds) if value <= b),
                        len(bounds))] += 1
            total += value
        (row,) = bulk.snapshot()
        assert list(row["buckets"].values()) == counts
        assert row["count"] == len(values) + 1
        assert repr(row["sum"]) == repr(total)

    def test_observe_many_rejects_nan_before_any_change(self):
        hist = Histogram("repro_test_seconds", "h", (1.0,))
        hist.observe(0.5)
        before = hist.snapshot()
        with pytest.raises(ValueError, match="NaN"):
            hist.observe_many([0.25, math.nan, 2.0])
        assert hist.snapshot() == before
        with pytest.raises(ValueError, match="NaN"):
            hist.observe_many([math.nan], shard="new")
        assert hist.snapshot() == before

    def test_quantile_agrees_with_nearest_rank(self):
        bounds = (0.1, 0.2, 0.5, 1.0)
        hist = Histogram("repro_test_seconds", "h", bounds)
        samples = [0.05, 0.15, 0.15, 0.3, 0.4, 0.9, 0.95]
        for value in samples:
            hist.observe(value)
        for pct in (1, 25, 50, 75, 95, 99, 100):
            exact = nearest_rank_percentile(samples, pct)
            expected = next((b for b in bounds if b >= exact), math.inf)
            assert hist.quantile(pct) == expected, pct

    def test_quantile_overflow_bucket_is_inf(self):
        hist = Histogram("repro_test_seconds", "h", (1.0,))
        hist.observe(5.0)
        assert hist.quantile(50) == math.inf

    def test_quantile_of_empty_series_raises(self):
        hist = Histogram("repro_test_seconds", "h", (1.0,))
        with pytest.raises(ValueError, match="empty"):
            hist.quantile(50)

    def test_exposition_buckets_are_cumulative(self):
        hist = Histogram("repro_test_seconds", "h", (0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        lines = hist.expose_lines()
        assert 'repro_test_seconds_bucket{le="0.1"} 1' in lines
        assert 'repro_test_seconds_bucket{le="1"} 3' in lines
        assert 'repro_test_seconds_bucket{le="+Inf"} 4' in lines
        assert "repro_test_seconds_count 4" in lines


class TestRegistry:
    def test_get_or_create_returns_same_metric(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_a_total", "h")
        second = registry.counter("repro_a_total")
        assert first is second

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total", "h")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_a_total", "h")

    def test_help_conflict_rejected(self):
        """Pinned: the same name under divergent help texts is a typed
        error, never a silent merge."""
        registry = MetricsRegistry()
        registry.counter("repro_a_total", "completed requests")
        with pytest.raises(MetricRegistrationError,
                           match="already registered with help"):
            registry.counter("repro_a_total", "admitted requests")
        # the error is a ValueError so legacy handlers still catch it
        assert issubclass(MetricRegistrationError, ValueError)

    def test_help_reregistration_identical_is_lookup(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_a_total", "h")
        assert registry.counter("repro_a_total", "h") is first

    def test_help_empty_is_no_claim(self):
        """An empty help is a lookup; the first real help backfills."""
        registry = MetricsRegistry()
        first = registry.counter("repro_a_total")
        assert registry.counter("repro_a_total", "real help") is first
        assert first.help_text == "real help"
        assert registry.counter("repro_a_total") is first
        with pytest.raises(MetricRegistrationError):
            registry.counter("repro_a_total", "different help")

    def test_expose_and_snapshot_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total", "help a").inc(3, shard="0")
        registry.gauge("repro_b_ratio", "help b").set(0.5)
        text = registry.expose()
        assert "# HELP repro_a_total help a" in text
        assert "# TYPE repro_a_total counter" in text
        assert 'repro_a_total{shard="0"} 3' in text
        assert "repro_b_ratio 0.5" in text
        snapshot = json.loads(registry.snapshot_json())
        assert snapshot["repro_a_total"]["kind"] == "counter"
        assert snapshot["repro_a_total"]["samples"][0]["value"] == 3.0


class TestBurnWindows:
    def test_requests_assigned_by_arrival(self):
        windows = slo_burn_windows(
            arrivals_s=[0.1, 0.3, 0.6, 0.9],
            latencies_s=[0.5, 2.0, 0.5, 2.0],
            slo_s=1.0, horizon_s=1.0, n_windows=2)
        assert [w.n_requests for w in windows] == [2, 2]
        assert [w.n_violations for w in windows] == [1, 1]

    def test_zero_horizon_degenerates_to_one_window(self):
        windows = slo_burn_windows([0.0, 0.0], [2.0, 0.5], 1.0, 0.0)
        assert len(windows) == 1
        assert windows[0].n_requests == 2
        assert windows[0].n_violations == 1

    def test_burn_rate_is_error_over_budget(self):
        window = BurnWindow(index=0, start_s=0.0, end_s=1.0,
                            n_requests=100, n_violations=2)
        assert window.error_rate() == pytest.approx(0.02)
        assert window.burn_rate(0.01) == pytest.approx(2.0)
        with pytest.raises(ValueError, match="budget"):
            window.burn_rate(0.0)

    def test_empty_window_burns_nothing(self):
        window = BurnWindow(index=0, start_s=0.0, end_s=1.0,
                            n_requests=0, n_violations=0)
        assert window.error_rate() == 0.0

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="mismatch"):
            slo_burn_windows([0.0], [], 1.0, 1.0)
        with pytest.raises(ValueError, match="SLO"):
            slo_burn_windows([0.0], [0.5], 0.0, 1.0)
        with pytest.raises(ValueError, match="window"):
            slo_burn_windows([0.0], [0.5], 1.0, 1.0, n_windows=0)
