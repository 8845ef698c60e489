"""Property suite: telemetry invariants under randomized workloads.

Three laws, checked over Hypothesis-generated serving configs (random
arrival processes, shard counts, batching knobs, and fault plans):

1. **TTI conservation** — every query's critical-path chain sums to the
   reported time-to-interactive within 1e-3 device cycles.
2. **Bit-identity** — running with telemetry attached produces a
   ``ServeReport`` equal (frozen-dataclass, so bitwise on every float)
   to the plain run.
3. **Histogram/quantile agreement** — a fixed-boundary histogram's
   quantile is always the smallest boundary at or above the exact
   ``nearest_rank_percentile`` of the raw samples.
4. **Lazy trees are exact** — the critical paths built from each
   request's determining leg alone equal those of the full trees, the
   lazily built trees equal an eager build, and every member of one
   batch shares a single batch-span object.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.params import DEFAULT_PARAMS
from repro.faults.plan import FaultPlan
from repro.rag.corpus import PAPER_CORPORA
from repro.serve.metrics import nearest_rank_percentile
from repro.serve.scheduler import BatchPolicy
from repro.serve.simulator import ServeConfig, ServingSimulator
from repro.telemetry import (
    SPAN_BATCH,
    conservation_error_cycles,
    critical_path,
)
from repro.telemetry.build import TraceBuilder
from repro.telemetry.metrics import DEFAULT_LATENCY_BOUNDS_S, Histogram

pytestmark = [pytest.mark.slow, pytest.mark.telemetry]

CLOCK = DEFAULT_PARAMS.clock_hz


@st.composite
def serve_configs(draw):
    n_shards = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    config = ServeConfig(
        spec=PAPER_CORPORA["10GB"],
        n_shards=n_shards,
        batch=BatchPolicy(
            max_batch=draw(st.sampled_from([1, 2, 4, 8, 16])),
            max_wait_s=draw(st.sampled_from([5e-4, 2e-3, 8e-3])),
        ),
        k=5,
        qps=draw(st.sampled_from([50.0, 200.0, 800.0])),
        n_requests=draw(st.integers(min_value=1, max_value=48)),
        seed=seed,
    )
    if draw(st.booleans()):
        horizon_s = 0.5
        plan = FaultPlan.random(seed=seed + 1, n_shards=n_shards,
                                horizon_s=horizon_s)
        if draw(st.booleans()):
            plan = plan.merged_with(FaultPlan.random_bit_flips(
                seed=seed + 2, n_shards=n_shards, horizon_s=horizon_s))
        config = ServeConfig(
            spec=config.spec, n_shards=n_shards, batch=config.batch,
            k=config.k, qps=config.qps, n_requests=config.n_requests,
            seed=seed, faults=plan)
    return config


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=serve_configs())
def test_critical_path_conserves_tti(config):
    _report, telemetry = ServingSimulator(config).run_with_telemetry()
    for path in telemetry.critical_paths:
        assert abs(conservation_error_cycles(path, CLOCK)) < 1e-3


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=serve_configs())
def test_telemetry_is_bit_identical_to_plain_run(config):
    baseline = ServingSimulator(config).run()
    report, telemetry = ServingSimulator(config).run_with_telemetry()
    assert report == baseline
    assert len(telemetry.traces) == report.n_completed


def assert_lazy_trees_exact(telemetry, result, merge, injector=None):
    """Law 4 for one run's telemetry (``merge``: the run's merge cost,
    one value or one per ``n_required``)."""
    builder = telemetry.builder
    assert "traces" not in vars(telemetry)  # nothing built them yet
    if telemetry.critical_paths:
        req_id = telemetry.critical_paths[-1].req_id
        single = telemetry.trace_for(req_id)
        assert "traces" not in vars(telemetry)
    traces = telemetry.traces
    assert telemetry.critical_paths == tuple(
        critical_path(trace) for trace in traces)
    assert list(traces) == TraceBuilder(
        result, merge, builder.prefill_s, builder.stage_tables,
        injector).traces()
    if traces:
        assert single == telemetry.trace_for(req_id) == traces[-1]
    spans = [span for trace in traces
             for leg in trace.shard_spans.values()
             for span in leg.children if span.name == SPAN_BATCH]
    assert len(spans) == sum(len(b.request_ids) for b in result.batches)
    assert len({id(span) for span in spans}) == len(result.batches)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=serve_configs())
def test_lazy_trees_are_exact(config):
    sim = ServingSimulator(config)
    _report, telemetry = sim.run_with_telemetry()
    assert_lazy_trees_exact(telemetry, telemetry.builder.result,
                            sim.merge_s, sim.injector)


@settings(max_examples=50, deadline=None)
@given(
    samples=st.lists(
        st.floats(min_value=1e-6, max_value=10.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=200),
    pct=st.integers(min_value=1, max_value=100),
)
def test_histogram_quantile_brackets_nearest_rank(samples, pct):
    hist = Histogram("repro_prop_seconds", "h", DEFAULT_LATENCY_BOUNDS_S)
    for value in samples:
        hist.observe(value)
    exact = nearest_rank_percentile(samples, pct)
    expected = next((b for b in DEFAULT_LATENCY_BOUNDS_S if b >= exact),
                    math.inf)
    assert hist.quantile(pct) == expected
