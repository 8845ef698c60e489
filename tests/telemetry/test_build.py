"""Builder tests: bit-identity, reconciliation, and registry wiring."""

import pytest

from repro.core.params import DEFAULT_PARAMS
from repro.obs import collecting
from repro.scale import (
    ScaleConfig,
    ScaleSimulator,
    golden_autoscale_config,
    golden_autoscale_fault_config,
)
from repro.serve.simulator import (
    ServingSimulator,
    golden_ecc_config,
    golden_fault_config,
    golden_integrity_config,
    golden_serve_config,
)
from repro.telemetry import StageTable, build, reconcile_with_trace
from repro.telemetry.build import TraceBuilder
from repro.telemetry.critical import critical_path

CLOCK = DEFAULT_PARAMS.clock_hz

GOLDEN_CONFIGS = {
    "serve": golden_serve_config,
    "serve_faults": golden_fault_config,
    "serve_integrity": golden_integrity_config,
}


#: Every ``repro spans`` workload, static and elastic.
SPANS_CONFIGS = {
    **GOLDEN_CONFIGS,
    "serve_ecc": golden_ecc_config,
    "serve_autoscale": golden_autoscale_config,
    "serve_autoscale_faults": golden_autoscale_fault_config,
}


def _telemetry(workload):
    config = SPANS_CONFIGS[workload]()
    if isinstance(config, ScaleConfig):
        return ScaleSimulator(config).run_with_telemetry()[1]
    return ServingSimulator(config).run_with_telemetry()[1]


def _event_key(event):
    return (event.name, event.lane, event.start_cycle, event.cycles,
            event.count, event.core_id)


class TestBitIdentity:
    """Telemetry must never perturb the simulation."""

    @pytest.mark.parametrize("workload", sorted(GOLDEN_CONFIGS))
    def test_report_is_bit_identical(self, workload):
        config = GOLDEN_CONFIGS[workload]()
        baseline = ServingSimulator(config).run()
        report, _telemetry = \
            ServingSimulator(config).run_with_telemetry()
        assert report == baseline

    @pytest.mark.parametrize("workload", sorted(GOLDEN_CONFIGS))
    def test_trace_events_are_bit_identical(self, workload):
        config = GOLDEN_CONFIGS[workload]()
        with collecting(capacity=65536) as plain:
            ServingSimulator(config).run()
        with collecting(capacity=65536) as instrumented:
            ServingSimulator(config).run_with_telemetry()
        assert [_event_key(e) for e in plain.events] \
            == [_event_key(e) for e in instrumented.events]


class TestReconciliation:
    @pytest.mark.parametrize("workload", sorted(GOLDEN_CONFIGS))
    def test_spans_match_trace_events(self, workload):
        config = GOLDEN_CONFIGS[workload]()
        with collecting(capacity=65536) as trace:
            _report, telemetry = \
                ServingSimulator(config).run_with_telemetry()
        report = reconcile_with_trace(telemetry.traces, trace, CLOCK)
        assert report.ok, report.mismatches
        assert report.n_batch_matched == report.n_batch_spans > 0
        assert report.n_merge_spans == report.n_merge_events == 64

    def test_mismatch_is_reported(self):
        config = golden_serve_config()
        with collecting(capacity=65536) as trace:
            _report, telemetry = \
                ServingSimulator(config).run_with_telemetry()
        # Drop every serve_batch event: nothing left to match against.
        survivors = [e for e in trace.events if e.name != "serve_batch"]
        report = reconcile_with_trace(telemetry.traces, survivors, CLOCK)
        assert not report.ok
        assert report.n_batch_matched == 0


class TestCriticalPathsFromRecord:
    """Paths come from the leg intervals, never from a tree, and equal
    the paths of the full trees exactly."""

    @pytest.mark.parametrize("workload", sorted(SPANS_CONFIGS))
    def test_paths_equal_the_full_trees_paths(self, workload):
        telemetry = _telemetry(workload)
        assert telemetry.critical_paths == tuple(
            critical_path(trace) for trace in telemetry.traces)

    def test_paths_build_no_span_or_tree(self, monkeypatch):
        telemetry = _telemetry("serve_faults")

        def forbidden(*args, **kwargs):
            raise AssertionError("critical paths built a span or tree")

        monkeypatch.setattr(build, "Span", forbidden)
        monkeypatch.setattr(build, "QueryTrace", forbidden)
        assert telemetry.builder.critical_paths() \
            == telemetry.critical_paths


class TestStageTables:
    def test_stage_table_count_mismatch_rejected(self):
        sim = ServingSimulator(golden_serve_config())
        result = sim._simulate().result
        with pytest.raises(ValueError, match="stage tables"):
            TraceBuilder(result, sim.merge_s, sim.prefill_s,
                         stage_tables=[])

    def test_stage_table_shape_mismatch_rejected(self):
        sim = ServingSimulator(golden_serve_config())
        result = sim._simulate().result
        bogus = [StageTable(shard_id=99, batch_size=1,
                            stages=(("mac", 1.0),))
                 for _ in result.batches]
        with pytest.raises(ValueError, match="does not match"):
            TraceBuilder(result, sim.merge_s, sim.prefill_s,
                         stage_tables=bogus)

    def test_without_tables_batches_stay_leaves(self):
        sim = ServingSimulator(golden_serve_config())
        result = sim._simulate().result
        traces = TraceBuilder(result, sim.merge_s, sim.prefill_s).traces()
        for trace in traces:
            for batch in trace.root.find_all("batch"):
                assert batch.children == []

    def test_full_service_batches_decompose_into_stages(self):
        _report, telemetry = ServingSimulator(
            golden_serve_config()).run_with_telemetry()
        trace = telemetry.traces[0]
        batch = trace.root.find_all("batch")[0]
        names = [child.name for child in batch.children]
        assert names == ["dma", "mac", "topk", "return"]
        # Stage children tile the batch span left to right.
        assert batch.children[0].start_s == batch.start_s
        for left, right in zip(batch.children, batch.children[1:]):
            assert left.end_s == right.start_s

    def test_integrity_run_charges_checksum_and_scrub(self):
        _report, telemetry = ServingSimulator(
            golden_integrity_config()).run_with_telemetry()
        names = set()
        for trace in telemetry.traces:
            for batch in trace.root.find_all("batch"):
                names.update(child.name for child in batch.children)
        assert {"checksum", "scrub"} <= names

    def test_fault_run_annotates_slowdown_source(self):
        _report, telemetry = ServingSimulator(
            golden_fault_config()).run_with_telemetry()
        sources = set()
        for trace in telemetry.traces:
            for span in trace.root.find_all("slowdown"):
                sources.add(span.labels.get("source"))
        assert sources  # the chaos plan stalls shard 1
        assert sources <= {"stall", "recovery", "stall,recovery"}


class TestRegistryWiring:
    @pytest.fixture(scope="class")
    def serve_telemetry(self):
        return ServingSimulator(golden_serve_config()).run_with_telemetry()

    def test_request_and_batch_counters(self, serve_telemetry):
        report, telemetry = serve_telemetry
        registry = telemetry.registry
        counter = registry.get("repro_requests_total")
        assert counter.value() == report.n_completed == 64
        batches = registry.get("repro_batches_total")
        assert sum(s["value"] for s in batches.snapshot()) \
            == report.n_batches

    def test_gauges_mirror_the_report(self, serve_telemetry):
        report, telemetry = serve_telemetry
        registry = telemetry.registry
        assert registry.get("repro_throughput_qps").value() \
            == report.throughput_qps
        assert registry.get("repro_slo_attainment_ratio").value() \
            == report.slo_attainment
        for shard_id, value in enumerate(report.shard_utilization):
            assert registry.get("repro_shard_utilization_ratio").value(
                shard=str(shard_id)) == value

    def test_tti_histogram_holds_every_request(self, serve_telemetry):
        _report, telemetry = serve_telemetry
        hist = telemetry.registry.get("repro_tti_seconds")
        assert hist.count() == 64

    def test_critical_path_counter_conserves_total_tti(self,
                                                       serve_telemetry):
        _report, telemetry = serve_telemetry
        counter = telemetry.registry.get(
            "repro_critical_path_seconds_total")
        total = sum(s["value"] for s in counter.snapshot())
        expected = sum(t.tti_s for t in telemetry.traces)
        assert total == pytest.approx(expected, rel=1e-12)

    def test_burn_rate_windows_present(self, serve_telemetry):
        _report, telemetry = serve_telemetry
        burn = telemetry.registry.get("repro_slo_burn_rate")
        values = [burn.value(window=str(i)) for i in range(4)]
        assert all(v is not None for v in values)

    def test_fault_run_counts_failure_machinery(self):
        report, telemetry = ServingSimulator(
            golden_fault_config()).run_with_telemetry()
        registry = telemetry.registry
        assert sum(s["value"] for s in
                   registry.get("repro_retries_total").snapshot()) \
            == report.n_retries > 0
        assert sum(s["value"] for s in
                   registry.get("repro_shard_deaths_total").snapshot()) \
            == report.n_shard_failures > 0

    def test_integrity_run_counts_detections(self):
        report, telemetry = ServingSimulator(
            golden_integrity_config()).run_with_telemetry()
        registry = telemetry.registry
        assert sum(s["value"] for s in registry.get(
            "repro_integrity_detected_total").snapshot()) \
            == report.n_corruptions_detected > 0
        assert sum(s["value"] for s in registry.get(
            "repro_integrity_recomputes_total").snapshot()) \
            == report.n_recomputes > 0


class TestRunTelemetryLookup:
    def test_lookup_by_request_id(self):
        _report, telemetry = ServingSimulator(
            golden_serve_config()).run_with_telemetry()
        assert telemetry.trace_for(5).req_id == 5
        assert telemetry.path_for(5).req_id == 5
        with pytest.raises(KeyError):
            telemetry.trace_for(10_000)
        with pytest.raises(KeyError):
            telemetry.path_for(10_000)
