"""Tests for the serving simulator: reports, traces, validation."""

import pytest

from repro.obs import LANE_HBM, collecting
from repro.rag.corpus import PAPER_CORPORA
from repro.serve import (
    ServeConfig,
    ServingSimulator,
    SliceCostModel,
    golden_serve_config,
    shard_chunk_counts,
    poisson_arrivals,
    trace_arrivals,
)


@pytest.fixture(scope="module")
def golden_report():
    return ServingSimulator(golden_serve_config()).run()


class TestServiceModel:
    def test_batch_of_one_anchored_at_table8(self):
        from repro.rag.retrieval import APURetriever

        spec = PAPER_CORPORA["50GB"]
        model = SliceCostModel(spec, k=5)
        single = APURetriever(optimized=True).retrieval_seconds(spec, 5)
        assert model.service_seconds(spec.n_chunks, 1) == single

    def test_batching_amortizes(self):
        spec = PAPER_CORPORA["200GB"]
        model = SliceCostModel(spec, k=5)
        quarter = shard_chunk_counts(spec.n_chunks, 4)[0]
        b1 = model.service_seconds(quarter, 1)
        b8 = model.service_seconds(quarter, 8)
        assert b8 > b1
        assert b8 / 8 < b1  # amortized per-query cost drops

    def test_smaller_shards_serve_faster(self):
        spec = PAPER_CORPORA["200GB"]
        model = SliceCostModel(spec, k=5)
        half, quarter = (shard_chunk_counts(spec.n_chunks, n)[0]
                         for n in (2, 4))
        assert model.service_seconds(quarter, 8) \
            < model.service_seconds(half, 8)


class TestReport:
    def test_report_shape(self, golden_report):
        report = golden_report
        cfg = report.config
        assert report.n_completed == cfg.n_requests
        assert report.throughput_qps > 0
        assert 0 <= report.slo_attainment <= 1
        assert len(report.shard_utilization) == cfg.n_shards
        assert all(0 < u <= 1 for u in report.shard_utilization)
        assert 1 <= report.mean_batch_size <= cfg.batch.max_batch
        stats = report.tti
        assert stats.p50_s <= stats.p95_s <= stats.p99_s <= stats.max_s
        assert report.retrieval.p50_s < stats.p50_s  # prefill dominates

    def test_format_mentions_key_numbers(self, golden_report):
        text = golden_report.format()
        assert "qps sustained" in text
        assert "p99" in text and "SLO" in text and "shard0" in text

    def test_simulation_is_deterministic(self):
        config = golden_serve_config()
        assert ServingSimulator(config).run() == ServingSimulator(config).run()

    def test_seed_changes_arrivals(self, golden_report):
        config = golden_serve_config()
        other = ServeConfig(
            spec=config.spec, n_shards=config.n_shards, batch=config.batch,
            k=config.k, qps=config.qps, n_requests=config.n_requests,
            seed=config.seed + 1, slo_s=config.slo_s)
        assert ServingSimulator(other).run().makespan_s \
            != golden_report.makespan_s

    def test_saturation_increases_tail_latency(self):
        spec = PAPER_CORPORA["200GB"]

        def run(qps):
            config = ServeConfig(spec=spec, n_shards=4, qps=qps,
                                 n_requests=64, slo_s=30.0)
            return ServingSimulator(config).run()

        light, heavy = run(20.0), run(2000.0)
        assert heavy.tti.p99_s > light.tti.p99_s
        assert heavy.throughput_qps < 2000.0  # saturated below offer


class TestTraceEmission:
    def test_shard_tagged_events(self):
        config = golden_serve_config()
        simulator = ServingSimulator(config)
        with collecting() as trace:
            report = simulator.run()

        sections = set(trace.cycles_by_section)
        for shard_id in range(config.n_shards):
            assert f"serve/shard{shard_id}" in sections
        assert "serve/merge" in sections
        # Calibration (closed-form breakdowns) stays out of the timeline.
        assert LANE_HBM not in trace.cycles_by_lane

        batch_events = [e for e in trace.events if e.name == "serve_batch"]
        assert len(batch_events) == report.n_batches
        assert {e.core_id for e in batch_events} \
            == set(range(config.n_shards))
        assert all(e.bytes_moved > 0 for e in batch_events)
        merge_events = [e for e in trace.events if e.name == "serve_merge"]
        assert len(merge_events) == config.n_requests
        assert {e.core_id for e in merge_events} == {config.n_shards}

    def test_calibration_restores_collector(self):
        with collecting() as trace:
            ServingSimulator(ServeConfig(spec=PAPER_CORPORA["10GB"],
                                         n_shards=2))
            from repro.obs import active_collector

            assert active_collector() is trace
        assert trace.total_events == 0

    def test_no_collector_no_events(self):
        report = ServingSimulator(golden_serve_config()).run()
        assert report.n_completed == 64  # ran fine without tracing


class TestValidation:
    def test_bad_qps_rejected(self):
        for bad in (0.0, -5.0, float("nan"), float("inf"), True, "100"):
            with pytest.raises(ValueError):
                poisson_arrivals(bad, 10)

    def test_bad_request_count_rejected(self):
        for bad in (0, -1, 1.5, True):
            with pytest.raises(ValueError):
                poisson_arrivals(100.0, bad)

    def test_bad_trace_rejected(self):
        with pytest.raises(ValueError):
            trace_arrivals([])
        with pytest.raises(ValueError):
            trace_arrivals([-1.0, 0.0])
        with pytest.raises(ValueError):
            trace_arrivals([2.0, 1.0])

    def test_bad_config_rejected(self):
        spec = PAPER_CORPORA["10GB"]
        with pytest.raises(ValueError):
            ServeConfig(spec=spec, k=0)
        with pytest.raises(ValueError):
            ServeConfig(spec=spec, slo_s=0.0)
        with pytest.raises(ValueError):
            ServeConfig(spec=spec, n_shards=spec.n_chunks + 1)

    @pytest.mark.parametrize("field, bad", [
        ("qps", 0.0), ("qps", -5.0), ("qps", float("nan")),
        ("qps", float("inf")), ("qps", True), ("qps", "100"),
        ("n_requests", 0), ("n_requests", -1), ("n_requests", 8.0),
        ("n_requests", True),
        ("seed", -1), ("seed", 1.5), ("seed", True),
        ("n_shards", 0), ("n_shards", -2), ("n_shards", 2.0),
        ("n_shards", True),
    ])
    def test_bad_workload_field_rejected(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ServeConfig(spec=PAPER_CORPORA["10GB"], **{field: bad})

    def test_numpy_workload_fields_accepted(self):
        import numpy as np

        config = ServeConfig(spec=PAPER_CORPORA["10GB"],
                             n_shards=np.int64(2), qps=np.float64(50.0),
                             n_requests=np.int32(8), seed=np.int64(0))
        assert ServingSimulator(config).run().n_completed == 8

    def test_nan_qps_rejected_before_the_elastic_loop(self):
        """NaN arrivals never compare ``<=`` the heap top, so an elastic
        run on a NaN rate re-armed its control tick forever."""
        from repro.scale import ScaleConfig, ScalePolicy

        with pytest.raises(ValueError,
                           match="^qps must be a positive finite rate, "
                                 "got nan$"):
            ScaleConfig(serve=ServeConfig(spec=PAPER_CORPORA["10GB"],
                                          n_shards=2, qps=float("nan")),
                        policy=ScalePolicy())

    def test_bad_shard_count_rejected(self):
        from repro.serve import ShardedAPURetriever

        for bad in (0, -2, 2.5, True):
            with pytest.raises(ValueError):
                ShardedAPURetriever(bad)
        with pytest.raises(ValueError):
            ShardedAPURetriever(2, policy="modulo")
