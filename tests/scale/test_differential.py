"""Differential proofs for the elastic wrapper and its event order.

Three families of pins:

* **Autoscaler-off runs ARE the static simulator.**  ``ScaleSimulator``
  with no policy must be a zero-cost wrapper -- every observable
  artifact (report, trace events, span renderings, metrics exposition)
  byte-identical to ``ServingSimulator`` on the same config, for both
  engines and including the fault-plan and integrity variants.  This is
  what lets the elastic path land without re-golden-ing anything.
* **Arrivals pop before simultaneous heap events.**  The elastic loop
  pointer-merges open-loop arrivals against its event heap; an arrival
  landing exactly on a control tick or a max-wait deadline is handled
  first, as if it had been pushed at setup ahead of every other event.
* **The columnar report is the record report.**  An elastic ``run()``
  reports from the shard machine's per-request columns without
  building a ``RequestRecord``; its report must equal the record-list
  arithmetic over the materialized records and ``run_with_telemetry``'s
  report, on the golden configs and on generated ones with faults, ECC
  and closed-loop clients.  The guards of the record path (a request
  answered too often, a request never resolved) still raise on every
  path.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.params import DEFAULT_PARAMS
from repro.ecc import ECCConfig
from repro.faults import FaultPlan
from repro.integrity import IntegrityConfig
from repro.obs import collecting, render_trace_golden
from repro.rag.corpus import PAPER_CORPORA
from repro.scale import (
    AdmissionPolicy,
    AutoscalePolicy,
    PriorityClass,
    ScaleConfig,
    ScalePolicy,
    ScaleSimulator,
    golden_autoscale_config,
    golden_autoscale_fault_config,
)
from repro.serve import BatchPolicy, RetryPolicy, ServeConfig
from repro.serve.metrics import LatencyStats, slo_attainment, utilization
from repro.serve.scheduler import ShardMachine
from repro.serve.simulator import ServingSimulator, golden_fault_config, \
    golden_integrity_config, golden_serve_config
from repro.telemetry import build_run_telemetry, render_attribution, \
    render_spans_report

from ..telemetry.test_properties import assert_lazy_trees_exact
from .test_properties import elastic_configs
from .test_simulator import _sdc_autoscale_config

pytestmark = pytest.mark.scale

CONFIGS = {
    "serve": golden_serve_config,
    "faults": golden_fault_config,
    "integrity": golden_integrity_config,
}
ENGINES = ("scalar", "vectorized")


def _pair(name, engine):
    serve = dataclasses.replace(CONFIGS[name](), engine=engine)
    return ServingSimulator(serve), ScaleSimulator(ScaleConfig(serve=serve))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_reports_bit_identical(name, engine):
    static, wrapped = _pair(name, engine)
    assert wrapped.run() == static.run()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_events_bit_identical(name, engine):
    static, wrapped = _pair(name, engine)
    with collecting() as expected:
        static.run()
    with collecting() as actual:
        wrapped.run()
    assert len(actual.events) == len(expected.events) > 0
    assert actual.events == expected.events


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_telemetry_bit_identical(name, engine):
    static, wrapped = _pair(name, engine)
    expected_report, expected = static.run_with_telemetry()
    actual_report, actual = wrapped.run_with_telemetry()
    assert actual_report == expected_report
    assert actual.traces == expected.traces
    assert actual.critical_paths == expected.critical_paths

    def spans_text(telemetry):
        return (render_spans_report(telemetry.traces, limit=8)
                + "\n\n"
                + render_attribution(telemetry.critical_paths,
                                     DEFAULT_PARAMS.clock_hz)
                + "\n")

    assert spans_text(actual) == spans_text(expected)
    assert actual.registry.expose() == expected.registry.expose()


# ---------------------------------------------------------------------------
# Pointer-merged arrivals keep the setup-pushed tie order.

def _tie_config(arrivals, max_wait_s, shed_queue_batches):
    """Two fixed devices, one class, a 64-deep batcher: nothing scales,
    so the only events are the arrivals, batch timers, and ticks."""
    serve = ServeConfig(
        spec=PAPER_CORPORA["10GB"], n_shards=2,
        batch=BatchPolicy(max_batch=64, max_wait_s=max_wait_s),
        n_requests=len(arrivals), seed=0, slo_s=0.512)
    policy = ScalePolicy(
        autoscale=AutoscalePolicy(min_shards=2, max_shards=2),
        admission=AdmissionPolicy(shed_queue_batches=shed_queue_batches),
        priorities=(PriorityClass(name="all", share=1.0),))
    return ScaleConfig(serve=serve, policy=policy, arrivals=tuple(arrivals))


def test_arrivals_pop_before_simultaneous_heap_events():
    # An arrival exactly on a control tick is judged before the tick:
    # with a near-zero shed threshold and one sub-query still queued,
    # it is shed, and the shed lands in the action log ahead of the
    # tick at the same instant.
    tick_s = AutoscalePolicy().control_interval_s
    report = ScaleSimulator(_tie_config(
        [0.001, tick_s], max_wait_s=1.0, shed_queue_batches=1e-9)).run()
    assert [a.kind for a in report.actions if a.t_s == tick_s] \
        == ["shed", "tick"]

    # An arrival exactly on the head's max-wait deadline is enqueued
    # before the deadline timer fires, so it rides the first batch.
    head_s, wait_s = 0.001, 0.004
    simulator = ScaleSimulator(_tie_config(
        [head_s, head_s + wait_s], max_wait_s=wait_s,
        shed_queue_batches=4.0))
    first = [b for b in simulator._run_record(capture=False).result.batches
             if b.seq == 0]
    assert [(b.dispatch_s, b.request_ids) for b in first] \
        == [(head_s + wait_s, (0, 1))] * 2


# ---------------------------------------------------------------------------
# The columnar elastic report is the record report.

def _record_report(simulator, run):
    """The report fields a pass over the materialized records gives:
    the record-list arithmetic that predates the per-request columns."""
    result = run.result
    cfg = simulator.config.serve
    classes = simulator.config.policy.priorities
    records = result.records
    merge = [run.merge[r.n_required] for r in records]
    tti = [(r.retrieval_done_s - r.arrival_s) + m + simulator.prefill_s
           for r, m in zip(records, merge)]
    n_offered = len(records) + sum(n for _, n in
                                   run.report.shed_by_class)
    sizes = [batch.batch_size for batch in result.batches]
    completed = [0] * len(classes)
    for record in records:
        completed[run.priorities[record.req_id]] += 1
    makespan = max(r.retrieval_done_s + m
                   for r, m in zip(records, merge)) + simulator.prefill_s
    return {
        "tti_by_req": {r.req_id: lat for r, lat in zip(records, tti)},
        "n_admitted": len(records),
        "n_completed": len(records),
        "makespan_s": makespan,
        "throughput_qps": len(records) / makespan,
        "goodput": sum(1 for lat in tti if lat <= cfg.slo_s) / n_offered,
        "retrieval": LatencyStats.from_samples(
            [r.retrieval_latency_s + m for r, m in zip(records, merge)]),
        "tti": LatencyStats.from_samples(tti),
        "slo_attainment": slo_attainment(tti, cfg.slo_s),
        "shard_utilization": tuple(
            utilization(result.busy_seconds, result.horizon_s)),
        "n_batches": len(sizes),
        "mean_batch_size": sum(sizes) / len(sizes) if sizes else 0.0,
        "completed_by_class": tuple(
            (cls.name, completed[i]) for i, cls in enumerate(classes)),
        "n_shard_failures": len(result.death_times),
        "n_timeouts": result.n_timeouts,
        "n_interrupted": result.n_interrupted,
        "n_retries": result.n_retries,
        "n_corruptions_detected": result.n_corruptions_detected,
        "n_sdc_escapes": result.n_sdc,
        "n_recomputes": result.n_recomputes,
        "n_ecc_corrected": result.n_ecc_corrected,
        "n_ecc_detected": result.n_ecc_detected,
        "n_ecc_miscorrections": result.n_ecc_miscorrections,
        "degraded_requests": sum(1 for r in records if r.failed_shards),
    }


def _assert_columnar_report_is_record_report(config):
    simulator = ScaleSimulator(config)
    run = simulator._run_record(capture=False)
    report = run.report
    assert "_materialized" not in vars(run)  # nothing materialized yet
    expected = _record_report(simulator, run)
    assert run.tti_by_req == expected.pop("tti_by_req")
    for name, value in expected.items():
        assert getattr(report, name) == value, name
    telemetry_report, _telemetry = \
        ScaleSimulator(config).run_with_telemetry()
    assert telemetry_report == report


@pytest.mark.parametrize("make_config", [golden_autoscale_config,
                                         golden_autoscale_fault_config,
                                         _sdc_autoscale_config])
def test_columnar_report_matches_record_report_on_goldens(make_config):
    _assert_columnar_report_is_record_report(make_config())


@st.composite
def chaotic_elastic_configs(draw):
    """:func:`elastic_configs` plus optional faults, bit flips, ABFT
    integrity and ECC on the initial pool."""
    config = draw(elastic_configs())
    serve = config.serve
    fault_seed = draw(st.integers(min_value=0, max_value=2**16))
    horizon_s = serve.n_requests / serve.qps + 0.05
    faults = FaultPlan()
    if draw(st.booleans()):
        faults = FaultPlan.random(
            seed=fault_seed, n_shards=serve.n_shards, horizon_s=horizon_s,
            max_slowdown=draw(st.sampled_from([2.0, 8.0])))
    if draw(st.booleans()):
        faults = faults.merged_with(FaultPlan.random_bit_flips(
            seed=fault_seed + 1, n_shards=serve.n_shards,
            horizon_s=horizon_s))
    serve = dataclasses.replace(
        serve, faults=faults,
        retry=RetryPolicy(timeout_s=draw(st.sampled_from([0.004, 0.012])),
                          max_retries=draw(st.integers(min_value=0,
                                                       max_value=2))),
        integrity=IntegrityConfig(enabled=draw(st.booleans())),
        ecc=ECCConfig(enabled=draw(st.booleans())))
    return dataclasses.replace(config, serve=serve)


@settings(deadline=None, max_examples=30,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=chaotic_elastic_configs())
def test_columnar_report_matches_record_report_generated(config):
    _assert_columnar_report_is_record_report(config)


@settings(deadline=None, max_examples=15,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=chaotic_elastic_configs())
def test_lazy_trees_are_exact_generated(config):
    record = ScaleSimulator(config)._run_record(capture=True)
    telemetry = build_run_telemetry(record)
    assert_lazy_trees_exact(telemetry, record.result, record.merge)


def test_plain_run_builds_no_records(monkeypatch):
    expected = ScaleSimulator(golden_autoscale_fault_config()).run()

    def refuse(self):
        raise AssertionError("a plain run() materialized its records")

    monkeypatch.setattr(ShardMachine, "result", refuse)
    assert ScaleSimulator(golden_autoscale_fault_config()).run() == expected


def test_collector_run_materializes_and_keeps_trace_golden(monkeypatch,
                                                           golden):
    calls = []
    materialize = ShardMachine.result

    def counted(self):
        calls.append(self)
        return materialize(self)

    monkeypatch.setattr(ShardMachine, "result", counted)
    with collecting() as trace:
        ScaleSimulator(golden_autoscale_config()).run()
    assert len(calls) == 1
    golden("trace_serve_autoscale.txt",
           render_trace_golden(trace, "serve_autoscale"))


def _corrupt_registration(monkeypatch, duplicate):
    """Sabotage request 0's registration: queue it twice on shard 0
    (``duplicate``), or register alongside it a phantom request that no
    shard queue holds."""
    register = ShardMachine.register

    def sabotaged(self, req_id, arrival_s, n_required):
        register(self, req_id, arrival_s, n_required)
        if req_id == 0:
            if duplicate:
                self.shards[0].queue.append(req_id)
            else:
                register(self, -1, arrival_s, 1)

    monkeypatch.setattr(ShardMachine, "register", sabotaged)


@pytest.mark.parametrize("entry", ["run", "run_with_telemetry"])
@pytest.mark.parametrize("duplicate, message", [
    (True, "request 0 served twice"),
    (False, r"requests never completed: \[-1\]"),
])
def test_guards_raise_on_every_elastic_path(monkeypatch, entry, duplicate,
                                            message):
    _corrupt_registration(monkeypatch, duplicate)
    simulator = ScaleSimulator(golden_autoscale_config())
    with pytest.raises(RuntimeError, match=message):
        getattr(simulator, entry)()


@pytest.mark.parametrize("duplicate, message", [
    (True, "request 0 served twice"),
    (False, r"requests never completed: \[-1\]"),
])
def test_static_scheduler_keeps_both_guards(monkeypatch, duplicate,
                                            message):
    _corrupt_registration(monkeypatch, duplicate)
    serve = dataclasses.replace(golden_serve_config(), engine="scalar")
    with pytest.raises(RuntimeError, match=message):
        ServingSimulator(serve).run()
