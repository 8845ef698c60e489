"""Critical-path conservation: the acceptance criterion of the PR.

For **every** query in each golden serving workload (fault-free,
chaos, and SDC/integrity), the extracted blocking chain must sum to the
reported TTI cycle-exactly -- segment boundaries are the event loop's
own floats, so the partition is bitwise and the scalar sum error stays
orders of magnitude below one device cycle.
"""

import pytest

from repro.core.params import DEFAULT_PARAMS
from repro.serve.simulator import (
    ServingSimulator,
    golden_fault_config,
    golden_integrity_config,
    golden_serve_config,
)
from repro.telemetry import (
    SPAN_MERGE,
    SPAN_PREFILL,
    conservation_error_cycles,
    critical_path,
    p99_contributors,
    stage_attribution,
)

CLOCK = DEFAULT_PARAMS.clock_hz

GOLDEN_CONFIGS = {
    "serve": golden_serve_config,
    "serve_faults": golden_fault_config,
    "serve_integrity": golden_integrity_config,
}


@pytest.fixture(scope="module")
def telemetry_by_workload():
    out = {}
    for name, factory in GOLDEN_CONFIGS.items():
        out[name] = ServingSimulator(factory()).run_with_telemetry()
    return out


class TestConservation:
    @pytest.mark.parametrize("workload", sorted(GOLDEN_CONFIGS))
    def test_every_query_conserves_tti(self, telemetry_by_workload,
                                       workload):
        _, telemetry = telemetry_by_workload[workload]
        assert len(telemetry.critical_paths) == 64
        for path in telemetry.critical_paths:
            error = conservation_error_cycles(path, CLOCK)
            assert error < 1e-3, (workload, path.req_id, error)

    @pytest.mark.parametrize("workload", sorted(GOLDEN_CONFIGS))
    def test_chain_partitions_bitwise(self, telemetry_by_workload,
                                      workload):
        """Adjacent segments share the event loop's exact floats."""
        _, telemetry = telemetry_by_workload[workload]
        for trace, path in zip(telemetry.traces, telemetry.critical_paths):
            segments = path.segments
            assert segments[0].start_s == trace.arrival_s
            assert segments[-1].name == SPAN_PREFILL
            assert segments[-2].name == SPAN_MERGE
            for left, right in zip(segments, segments[1:]):
                assert left.end_s == right.start_s
            assert segments[-2].start_s == trace.retrieval_done_s
            assert segments[-1].end_s == \
                (trace.retrieval_done_s + trace.merge_s) + trace.prefill_s

    def test_determining_shard_resolves_the_gather(self,
                                                   telemetry_by_workload):
        _, telemetry = telemetry_by_workload["serve"]
        for trace in telemetry.traces:
            leg = trace.shard_spans[trace.determining_shard]
            assert leg.end_s == trace.retrieval_done_s


class TestAttribution:
    def test_stage_totals_sum_to_path_total(self, telemetry_by_workload):
        _, telemetry = telemetry_by_workload["serve"]
        path = telemetry.critical_paths[0]
        assert sum(path.stage_totals().values()) == pytest.approx(
            path.total_s, rel=1e-12)

    @pytest.mark.parametrize("workload", ["serve", "serve_faults"])
    def test_stage_seconds_is_the_stage_totals_entry(
            self, telemetry_by_workload, workload):
        """One stage's seconds equal its ``stage_totals`` entry bitwise,
        and an absent stage reads 0.0."""
        _, telemetry = telemetry_by_workload[workload]
        for path in telemetry.critical_paths:
            totals = path.stage_totals()
            for key in (*totals, "queue_wait", "no_such_stage"):
                assert path.stage_seconds(key) == totals.get(key, 0.0)

    def test_run_attribution_aggregates(self, telemetry_by_workload):
        _, telemetry = telemetry_by_workload["serve"]
        totals = stage_attribution(telemetry.critical_paths)
        assert totals["prefill"] == pytest.approx(
            64 * telemetry.traces[0].prefill_s, rel=1e-9)
        assert set(totals) >= {"prefill", "merge", "batch:ok"}

    def test_fault_run_attributes_failure_stages(self,
                                                 telemetry_by_workload):
        _, telemetry = telemetry_by_workload["serve_faults"]
        totals = stage_attribution(telemetry.critical_paths)
        # The chaos plan forces timeouts and backoff onto some
        # requests' blocking chains.
        assert any(key.startswith("batch:timeout") for key in totals)
        assert "backoff" in totals

    def test_p99_contributors_shares_sum_to_one(self,
                                                telemetry_by_workload):
        _, telemetry = telemetry_by_workload["serve"]
        p99, shares = p99_contributors(telemetry.critical_paths)
        assert p99 == pytest.approx(
            sorted(t.tti_s for t in telemetry.traces)[
                max(0, -(-99 * 64 // 100) - 1)])
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_p99_contributors_rejects_empty(self):
        with pytest.raises(ValueError, match="empty run"):
            p99_contributors([])


class TestCriticalPathShape:
    def test_no_duplicate_extraction(self, telemetry_by_workload):
        """critical_path is a pure function of the trace."""
        _, telemetry = telemetry_by_workload["serve"]
        trace = telemetry.traces[0]
        again = critical_path(trace)
        assert again == telemetry.critical_paths[0]
