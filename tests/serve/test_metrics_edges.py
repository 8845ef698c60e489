"""Edge-case hardening of the serving metrics helpers.

Empty sample sets and zero-duration windows used to surface as bare
``ValueError``/``ZeroDivisionError`` deep inside aggregation; they now
raise typed errors that remain ``ValueError`` subclasses so existing
``except ValueError`` callers keep working.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.serve.metrics import (
    EmptySampleError,
    LatencyStats,
    ZeroDurationError,
    nearest_rank_percentile,
    slo_attainment,
    utilization,
)


class TestEmptySamples:
    def test_percentile_of_nothing(self):
        with pytest.raises(EmptySampleError, match="empty"):
            nearest_rank_percentile([], 50)

    def test_latency_stats_of_nothing(self):
        with pytest.raises(EmptySampleError, match="at least one"):
            LatencyStats.from_samples([])

    def test_slo_attainment_of_nothing(self):
        with pytest.raises(EmptySampleError, match="empty"):
            slo_attainment([], slo_s=1.0)

    def test_is_still_a_value_error(self):
        with pytest.raises(ValueError):
            nearest_rank_percentile([], 50)


class TestZeroDurationWindows:
    def test_nonpositive_slo_rejected(self):
        with pytest.raises(ZeroDurationError, match="SLO"):
            slo_attainment([0.5], slo_s=0.0)
        with pytest.raises(ZeroDurationError, match="SLO"):
            slo_attainment([0.5], slo_s=-1.0)

    def test_zero_horizon_utilization_rejected(self):
        with pytest.raises(ZeroDurationError, match="horizon"):
            utilization([1.0], 0.0)

    def test_nan_horizon_utilization_rejected(self):
        with pytest.raises(ZeroDurationError, match="horizon"):
            utilization([1.0], math.nan)

    def test_is_still_a_value_error(self):
        with pytest.raises(ValueError):
            utilization([1.0], 0.0)


class TestHappyPathUnchanged:
    def test_single_sample(self):
        stats = LatencyStats.from_samples([0.25])
        assert stats.n == 1
        assert stats.p50_s == stats.p99_s == stats.max_s == 0.25

    def test_attainment_and_utilization(self):
        assert slo_attainment([0.5, 2.0], slo_s=1.0) == 0.5
        assert utilization([0.5, 3.0], 2.0) == [0.25, 1.0]


class TestArraySamples:
    """Reports pass NumPy columns; lists and arrays must agree bitwise."""

    @staticmethod
    def _samples():
        return np.random.default_rng(7).exponential(0.01, 4097) + 0.5

    def test_array_and_list_stats_are_identical(self):
        samples = self._samples()
        as_list = samples.tolist()
        from_array = LatencyStats.from_samples(samples)
        assert from_array == LatencyStats.from_samples(as_list)
        assert repr(from_array) == repr(LatencyStats.from_samples(as_list))
        for pct, field in ((50, "p50_s"), (95, "p95_s"), (99, "p99_s")):
            assert getattr(from_array, field) \
                == nearest_rank_percentile(as_list, pct)
        assert type(from_array.p99_s) is float

    def test_mean_adds_in_order_not_pairwise(self):
        """NumPy's pairwise sum differs in the last bits on this sample;
        the stats keep the sequential sum the list path always used."""
        samples = self._samples()
        assert float(np.sum(samples)) != sum(samples.tolist())
        assert LatencyStats.from_samples(samples).mean_s \
            == sum(samples.tolist()) / samples.size

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0,
                              allow_subnormal=False),
                    min_size=1, max_size=64))
    @example([0.25])
    @example([0.1, 0.1, 0.1, 0.3])
    @example([0.3, 0.1, 0.2, 0.1, 0.3])
    def test_array_and_list_give_equal_stats(self, samples):
        """Any sample -- one value, ties, unsorted -- gives the same
        stats, to the bit and the type, as a list and as an array."""
        from_list = LatencyStats.from_samples(samples)
        from_array = LatencyStats.from_samples(np.asarray(samples))
        assert from_array == from_list
        assert repr(from_array) == repr(from_list)
        assert all(type(getattr(from_array, field)) is float
                   for field in ("mean_s", "p50_s", "p95_s", "p99_s",
                                 "max_s"))
        assert from_array.max_s == max(samples)

    def test_attainment_of_an_array(self):
        samples = self._samples()
        assert slo_attainment(samples, 0.51) \
            == slo_attainment(samples.tolist(), 0.51)
        with pytest.raises(EmptySampleError):
            slo_attainment(np.empty(0), 1.0)
        with pytest.raises(EmptySampleError):
            LatencyStats.from_samples(np.empty(0))


class TestIntegrityMetricsExport:
    def test_protected_stats_export_into_registry(self):
        from repro.integrity.protected import IntegrityStats
        from repro.telemetry import MetricsRegistry

        stats = IntegrityStats()
        stats.n_checks, stats.n_detected, stats.n_recomputes = 10, 2, 1
        registry = MetricsRegistry()
        stats.export_to(registry, shard=3)
        assert registry.get("repro_abft_checks_total").value(
            shard="3") == 10
        assert registry.get("repro_abft_detected_total").value(
            shard="3") == 2
        assert registry.get("repro_abft_recomputes_total").value(
            shard="3") == 1

    def test_sharded_retriever_export(self):
        from repro.serve.retriever import ShardedAPURetriever
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        protected = ShardedAPURetriever(n_shards=2, protected=True)
        assert protected.export_integrity_metrics(registry) is True
        assert registry.get("repro_abft_checks_total") is not None

        unprotected = ShardedAPURetriever(n_shards=2)
        assert unprotected.export_integrity_metrics(
            MetricsRegistry()) is False
