"""Differential proof: the vectorized core is bit-identical to scalar.

Layers of evidence, from cheapest to broadest:

1. **Golden replays.**  The three canonical workloads (plain serving,
   the chaos plan, the SDC plan) run under both engines; reports,
   collected trace-event streams, span trees, critical paths, and the
   exposed metrics registry must compare *equal* -- no tolerances.
2. **Scheduler-level hypothesis sweeps.**  Random arrival streams,
   batch policies, shard counts, and synthetic service models drive
   both schedulers directly.  Fault-free, the ``run_arrays`` columns
   must equal the scalar :class:`ScheduleResult` shard by shard (each
   shard's batches in dispatch order, every request's resolution time,
   busy seconds); with randomized fault / bit-flip plans the full
   results (fault log, death times) must match.
3. **Simulator-level hypothesis sweep.**  Whole ``ServeConfig``
   deployments (anchored service models, failover, integrity,
   telemetry on or off) compared end to end.
4. **The columnar report.**  Fault-free vectorized ``run()`` reports
   from ``ArraySchedule`` columns; its report must equal the scalar
   engine's, ``run_with_telemetry()``'s, and list arithmetic over the
   scalar loop's records, on tied / on-deadline arrivals, shuffled
   request ids, and fleets of several service classes.
5. **A guard** that plain ``run()`` never runs the scalar event loop.

Cross-shard ties at the exact same float64 instant are not hypothetical
-- different per-shard service sums really do round to the same double
under these sweeps.  The columns carry no global order, so such ties
cannot change them, and every assertion here is strict equality with
no tolerance.  Every object-form ``ScheduleResult`` (fault runs,
telemetry, monitors, traces) comes from the scalar event loop on
either engine, so those comparisons hold by construction and pin that
hand-off.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultPlan, OutageFault, StallFault
from repro.obs import render_trace_golden
from repro.obs.collector import collecting
from repro.rag.corpus import PAPER_CORPORA
from repro.scale import ScaleConfig, ScaleSimulator
from repro.serve import (
    BatchPolicy,
    DiscreteEventScheduler,
    Request,
    RetryPolicy,
    ServeConfig,
    ServeReport,
    ServingSimulator,
    golden_fault_config,
    golden_integrity_config,
    golden_serve_config,
    poisson_arrival_times,
    poisson_arrivals,
    spike_arrival_times,
    trace_arrivals,
)
from repro.serve.metrics import LatencyStats, nearest_rank_percentile
from repro.simcore import VectorizedScheduler
from repro.simcore.vectorized import _BULK, request_columns

GOLDEN_FACTORIES = {
    "serve": golden_serve_config,
    "serve_faults": golden_fault_config,
    "serve_integrity": golden_integrity_config,
}


def _assert_results_equal(res_s, res_v):
    """Field-by-field ScheduleResult equality (better failure output
    than one giant ``==``)."""
    assert res_v.n_shards == res_s.n_shards
    assert res_v.policy == res_s.policy
    assert res_v.batches == res_s.batches
    assert res_v.records == res_s.records
    assert res_v.busy_seconds == res_s.busy_seconds
    assert res_v.fault_log == res_s.fault_log
    assert res_v.death_times == res_s.death_times


def _assert_columns_match(arrays, scalar_result):
    """The ``run_arrays`` columns equal the scalar result shard by
    shard: each shard's batches in dispatch order (dispatch, service,
    request ids, head arrival), every request's resolution time by id,
    and busy seconds."""
    ids = arrays.req_ids.tolist()
    arrival = arrays.arrival_s.tolist()
    columns = [
        (shard, dispatch, service, tuple(ids[start:start + size]),
         arrival[start])
        for shard, dispatch, service, start, size in zip(
            arrays.batch_shard.tolist(), arrays.batch_dispatch_s.tolist(),
            arrays.batch_service_s.tolist(), arrays.batch_start.tolist(),
            arrays.batch_size.tolist())]
    # A stable sort by shard keeps each shard's dispatch order.
    assert columns == sorted(
        ((b.shard_id, b.dispatch_s, b.service_s, b.request_ids,
          b.head_enqueue_s) for b in scalar_result.batches),
        key=lambda row: row[0])
    assert dict(zip(ids, arrays.retrieval_done_s.tolist())) == {
        r.req_id: r.retrieval_done_s for r in scalar_result.records}
    assert tuple(arrays.busy_seconds.tolist()) \
        == scalar_result.busy_seconds


def _assert_configs_agree(base: ServeConfig, with_telemetry: bool = True):
    """Run one deployment under both engines and demand bitwise equality
    of every observable artifact."""
    vec_cfg = dataclasses.replace(base, engine="vectorized")
    if with_telemetry:
        with collecting() as tr_s:
            rep_s, tel_s = ServingSimulator(base).run_with_telemetry()
        with collecting() as tr_v:
            rep_v, tel_v = ServingSimulator(vec_cfg).run_with_telemetry()
    else:
        with collecting() as tr_s:
            rep_s = ServingSimulator(base).run()
        with collecting() as tr_v:
            rep_v = ServingSimulator(vec_cfg).run()
        tel_s = tel_v = None

    # The configs differ only in the engine field; normalize and compare
    # everything else bit-for-bit.
    assert dataclasses.replace(rep_v, config=base) == rep_s
    assert tr_v.events == tr_s.events
    if tel_s is not None:
        assert tel_v.traces == tel_s.traces
        assert tel_v.critical_paths == tel_s.critical_paths
        assert tel_v.registry.expose() == tel_s.registry.expose()


# ----------------------------------------------------------------------
# 1. Golden replays
# ----------------------------------------------------------------------
class TestGoldenReplays:
    @pytest.mark.parametrize("name", sorted(GOLDEN_FACTORIES))
    def test_golden_workload_is_bit_identical(self, name):
        _assert_configs_agree(GOLDEN_FACTORIES[name]())

    @pytest.mark.parametrize("name", sorted(GOLDEN_FACTORIES))
    def test_golden_workload_without_telemetry(self, name):
        _assert_configs_agree(GOLDEN_FACTORIES[name](),
                              with_telemetry=False)


# ----------------------------------------------------------------------
# 2. Scheduler-level sweeps (synthetic service model: cheap + broad)
# ----------------------------------------------------------------------
def _synthetic_service(base_ms: float, inc_ms: float):
    """A deterministic (shard, batch size) -> seconds callable."""
    def service(shard_id: int, batch_size: int) -> float:
        return (base_ms * (1.0 + 0.13 * shard_id)
                + inc_ms * (batch_size - 1)) * 1e-3
    return service


@st.composite
def scheduler_scenarios(draw):
    n_shards = draw(st.integers(min_value=1, max_value=8))
    policy = BatchPolicy(
        max_batch=draw(st.integers(min_value=1, max_value=16)),
        max_wait_s=draw(st.sampled_from([0.0, 5e-4, 1e-3, 2e-3, 5e-3])),
    )
    qps = draw(st.sampled_from([50.0, 200.0, 800.0, 3000.0]))
    n_requests = draw(st.integers(min_value=1, max_value=120))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    service = _synthetic_service(
        base_ms=draw(st.sampled_from([0.2, 0.5, 1.1, 2.3])),
        inc_ms=draw(st.sampled_from([0.03, 0.11, 0.4])),
    )
    return n_shards, policy, qps, n_requests, seed, service


# Hypothesis-found regressions, pinned so they run everywhere without
# the local example database.
def test_heap_tie_across_unequal_histories():
    """Shards 2 and 6 go idle at the *same* float64 instant through
    different service sums (2.3838ms + 0.63ms == 1.7938ms + 1.22ms
    after rounding), both arm max-wait timers there, and the scalar
    heap orders shard 6 first because its completion was pushed
    earlier.  The per-shard columns must not care."""
    policy = BatchPolicy(max_batch=4, max_wait_s=5e-4)
    requests = poisson_arrivals(3000.0, 9, 0)
    service = _synthetic_service(base_ms=0.5, inc_ms=0.11)
    res_s = DiscreteEventScheduler(7, policy, service).run(requests)
    arrays = VectorizedScheduler(7, policy, service).run_arrays(
        *request_columns(requests))
    _assert_columns_match(arrays, res_s)


def test_death_observed_by_arrival_inside_backoff():
    """A batch is interrupted one ulp *before* a permanent outage
    opens, so the failure handler arms a retry backoff instead of
    declaring death; the next arrival then lands inside the backoff
    window with the shard permanently down.  The scalar loop's
    down-check precedes its blocked-check, so the shard dies at that
    arrival's instant -- not at the backoff wake.  Hypothesis-found
    (fault_seed=1057)."""
    policy = BatchPolicy(max_batch=3, max_wait_s=5e-4)
    requests = poisson_arrivals(800.0, 63, 3)
    horizon = requests[-1].arrival_s + 0.05
    plan = FaultPlan.random(1057, 1, horizon, stall_rate=1.0,
                            outage_rate=0.5, permanent_fraction=0.25)
    retry = RetryPolicy(timeout_s=0.004, max_retries=1,
                        backoff_base_s=5e-4, backoff_cap_s=4e-3)
    service = _synthetic_service(base_ms=2.3, inc_ms=0.03)
    res_s = DiscreteEventScheduler(
        1, policy, service, injector=FaultInjector(plan, 1),
        retry=retry).run(requests)
    res_v = VectorizedScheduler(
        1, policy, service, injector=FaultInjector(plan, 1),
        retry=retry).run(requests)
    _assert_results_equal(res_s, res_v)
    # the death lands at the in-backoff arrival, not the backoff wake
    [death_s] = res_s.death_times.values()
    assert death_s in {r.arrival_s for r in requests}


def test_death_barrier_splits_simultaneous_fanout():
    """A permanent outage is observed by the lone request's arrival:
    shards 0 and 1 dispatch inside the same fan-out loop *before*
    shard 2's death invokes failover, so they must use the
    pre-reroute service model even though they dispatch at exactly
    the death time."""
    plan = FaultPlan(
        stalls=(
            StallFault(shard_id=0, start_s=0.04322286998466605,
                       duration_s=0.01251921009392791,
                       slowdown=7.561716323056281),
            StallFault(shard_id=1, start_s=0.02907513023884803,
                       duration_s=0.005025113961525017,
                       slowdown=1.978276876118391),
            StallFault(shard_id=1, start_s=0.044133836112604984,
                       duration_s=0.013052802301521522,
                       slowdown=4.09307595499895),
            StallFault(shard_id=2, start_s=0.013082805344495838,
                       duration_s=0.015492135951751713,
                       slowdown=4.891689205986793),
        ),
        outages=(
            OutageFault(shard_id=2, start_s=0.011644599526918953,
                        duration_s=float("inf"), recovery_s=0.0,
                        recovery_slowdown=1.0),
        ),
    )
    config = ServeConfig(
        spec=PAPER_CORPORA["10GB"], n_shards=3,
        batch=BatchPolicy(max_batch=1, max_wait_s=0.0),
        k=5, qps=100.0, n_requests=1, seed=31, slo_s=1.0,
        faults=plan,
        retry=RetryPolicy(timeout_s=0.008, max_retries=2,
                          backoff_base_s=0.001, backoff_cap_s=0.008),
    )
    _assert_configs_agree(config, with_telemetry=False)


@pytest.mark.simcore
def test_two_death_spike_completes_on_both_engines():
    """30k spiky requests on 10 GB over 8 shards, with shards 2 and 5
    failing for good a quarter and half way in.  A vectorized replica
    of the fault loop once raised ``RecursionError`` here; fault runs
    must finish on either engine with one report."""
    arrivals = spike_arrival_times(4000.0, 30000, 0, spike_multiplier=6.0)
    plan = FaultPlan(outages=(
        OutageFault(shard_id=2, start_s=float(arrivals[7500])),
        OutageFault(shard_id=5, start_s=float(arrivals[15000]))))
    reports = {
        engine: ServingSimulator(ServeConfig(
            spec=PAPER_CORPORA["10GB"], n_shards=8, qps=4000.0,
            n_requests=30000, faults=plan, engine=engine)).run(arrivals)
        for engine in ("scalar", "vectorized")}
    scalar = reports["scalar"]
    assert scalar.n_shard_failures == 2
    assert dataclasses.replace(reports["vectorized"],
                               config=scalar.config) == scalar


# Deterministic edges of the fault-free scan.  A saturated stretch is
# entered once its first full batch is ready, and its cumsum chunks grow
# 8, 16, ... up to ``_BULK`` launches; these streams end stretches on
# and just past those edges, and pin the exact-tie rules of the scalar
# steps.
def _assert_scan_matches_scalar(times, policy, service, n_shards=1):
    requests = trace_arrivals(times)
    res_s = DiscreteEventScheduler(n_shards, policy, service).run(requests)
    arrays = VectorizedScheduler(n_shards, policy, service).run_arrays(
        np.asarray(times, dtype=np.float64))
    _assert_columns_match(arrays, res_s)
    return arrays


def _saturated_stream(max_batch: int, n_bulk: int, n_tail: int):
    """Two full batches dispatched by scalar steps, then ``n_bulk`` more
    all queued before the device first frees (the bulk stretch), then
    ``n_tail`` arrivals long after the stretch ends."""
    n = max_batch * (2 + n_bulk)
    return np.concatenate([np.arange(n) * 1e-7,
                           10.0 + np.arange(n_tail) * 1e-3])


@pytest.mark.parametrize("n_bulk", [0, 1, 8, 9])
@pytest.mark.parametrize("n_tail", [0, 3, 5])
def test_saturated_stretch_on_chunk_edges(n_bulk, n_tail):
    """A tail of 5 (a full batch or more) ends the stretch on its fill
    check, mid-chunk for 9; a tail of 3 or none ends it when less than
    a full batch is left."""
    policy = BatchPolicy(max_batch=4, max_wait_s=2e-3)
    arrays = _assert_scan_matches_scalar(
        _saturated_stream(4, n_bulk, n_tail), policy,
        _synthetic_service(base_ms=12.3, inc_ms=0.11), n_shards=2)
    assert arrays.n_batches == 2 * (2 + n_bulk + (n_tail + 3) // 4)


def test_saturated_stretch_longer_than_bulk_chunk():
    """Chunks reach ``_BULK`` twice, then shrink to the arrivals left."""
    n_bulk = 3 * _BULK
    policy = BatchPolicy(max_batch=2, max_wait_s=2e-3)
    arrays = _assert_scan_matches_scalar(
        _saturated_stream(2, n_bulk, 3), policy,
        _synthetic_service(base_ms=0.37, inc_ms=0.11))
    assert arrays.n_batches == 2 + n_bulk + 2


_DYADIC_FREE = 2.0 ** -4 + 4 * 2.0 ** -10  # the first batch's end


def _dyadic_service(shard_id: int, batch_size: int) -> float:
    return 2.0 ** -4 + batch_size * 2.0 ** -10


@pytest.mark.parametrize("tail", [
    [_DYADIC_FREE],
    [0.01, 0.02, 0.03, _DYADIC_FREE],
    [_DYADIC_FREE - 2.0 ** -8, _DYADIC_FREE],
    [_DYADIC_FREE, _DYADIC_FREE, _DYADIC_FREE + 2.0 ** -8],
    [0.01] * 4 + [0.02] * 3 + [2 * _DYADIC_FREE]
    + [0.14] * 3 + [3 * _DYADIC_FREE],
], ids=["alone", "fills-batch", "head-on-deadline", "tied", "bulk-ties"])
def test_arrival_exactly_on_device_free(tail):
    """The first batch of four frees the device at ``_DYADIC_FREE``
    exactly, the instant the tail's arrivals land.  In "bulk-ties" the
    saturated stretch's launches (at 2 and 3 times that) each meet the
    arrival that fills their batch."""
    policy = BatchPolicy(max_batch=4, max_wait_s=2.0 ** -8)
    _assert_scan_matches_scalar(
        [0.0] * 4 + tail, policy, _dyadic_service)


@pytest.mark.parametrize("times", [
    [0.0, 0.0, 2.0 ** -6, 2.0 ** -6, 2.0 ** -6, 1.0],
    [0.0] * 3 + [2.0 ** -5] * 6,
    [0.0, 2.0 ** -20, 2.0 ** -12, 2.0 ** -12, 0.5, 0.5],
], ids=["idle-ties", "ties-behind-busy-device", "spread"])
def test_arrival_exactly_on_zero_wait_deadline(times):
    """With ``max_wait_s=0`` every head's deadline is its own arrival,
    so tied arrivals land exactly on it."""
    policy = BatchPolicy(max_batch=4, max_wait_s=0.0)
    _assert_scan_matches_scalar(times, policy, _dyadic_service)


@settings(deadline=None, max_examples=60)
@given(scenario=scheduler_scenarios())
def test_schedulers_agree_fault_free(scenario):
    n_shards, policy, qps, n_requests, seed, service = scenario
    requests = poisson_arrivals(qps, n_requests, seed)
    res_s = DiscreteEventScheduler(n_shards, policy, service).run(requests)
    arrays = VectorizedScheduler(n_shards, policy, service).run_arrays(
        poisson_arrival_times(qps, n_requests, seed))
    _assert_columns_match(arrays, res_s)


@pytest.mark.simcore
@settings(deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scheduler_scenarios(),
       fault_seed=st.integers(min_value=0, max_value=2**16),
       with_flips=st.booleans(),
       protected=st.booleans(),
       max_retries=st.integers(min_value=0, max_value=3))
def test_schedulers_agree_under_faults(scenario, fault_seed, with_flips,
                                       protected, max_retries):
    n_shards, policy, qps, n_requests, seed, service = scenario
    requests = poisson_arrivals(qps, n_requests, seed)
    horizon = requests[-1].arrival_s + 0.05
    plan = FaultPlan.random(fault_seed, n_shards, horizon,
                            stall_rate=1.0, outage_rate=0.5,
                            permanent_fraction=0.25)
    if with_flips:
        plan = plan.merged_with(FaultPlan.random_bit_flips(
            fault_seed + 1, n_shards, horizon, flip_rate=1.5))
    retry = RetryPolicy(timeout_s=0.004, max_retries=max_retries,
                        backoff_base_s=5e-4, backoff_cap_s=4e-3)

    res_s = DiscreteEventScheduler(
        n_shards, policy, service,
        injector=FaultInjector(plan, n_shards), retry=retry,
        protected=protected).run(requests)
    res_v = VectorizedScheduler(
        n_shards, policy, service,
        injector=FaultInjector(plan, n_shards), retry=retry,
        protected=protected).run(requests)
    _assert_results_equal(res_s, res_v)


# ----------------------------------------------------------------------
# 3. Simulator-level sweep (anchored service models, failover,
#    integrity, telemetry on/off)
# ----------------------------------------------------------------------
@st.composite
def serve_configs(draw):
    n_shards = draw(st.integers(min_value=1, max_value=6))
    qps = draw(st.sampled_from([100.0, 400.0, 1600.0]))
    n_requests = draw(st.integers(min_value=1, max_value=48))
    seed = draw(st.integers(min_value=0, max_value=2**10))
    kind = draw(st.sampled_from(["plain", "faults", "flips"]))
    faults = FaultPlan()
    retry = RetryPolicy()
    integrity = None
    if kind == "faults":
        horizon = n_requests / qps + 0.05
        faults = FaultPlan.random(seed + 7, n_shards, horizon,
                                  stall_rate=1.0, outage_rate=0.5,
                                  permanent_fraction=0.25)
        retry = RetryPolicy(timeout_s=0.008, max_retries=2,
                            backoff_base_s=1e-3, backoff_cap_s=8e-3)
    elif kind == "flips":
        from repro.integrity import IntegrityConfig
        horizon = n_requests / qps + 0.05
        faults = FaultPlan.random_bit_flips(seed + 13, n_shards, horizon,
                                            flip_rate=2.0)
        retry = RetryPolicy(max_retries=2, backoff_base_s=1e-3,
                            backoff_cap_s=8e-3)
        integrity = IntegrityConfig(enabled=draw(st.booleans()),
                                    max_recomputes=2,
                                    scrub_interval_s=0.050, scrub_vrs=8)
    kwargs = dict(
        spec=PAPER_CORPORA["10GB"],
        n_shards=n_shards,
        batch=BatchPolicy(
            max_batch=draw(st.integers(min_value=1, max_value=12)),
            max_wait_s=draw(st.sampled_from([0.0, 1e-3, 2e-3, 5e-3])),
        ),
        k=5,
        qps=qps,
        n_requests=n_requests,
        seed=seed,
        slo_s=1.0,
        faults=faults,
        retry=retry,
    )
    if integrity is not None:
        kwargs["integrity"] = integrity
    return ServeConfig(**kwargs), draw(st.booleans())


@pytest.mark.simcore
@settings(deadline=None, max_examples=48,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(case=serve_configs())
def test_simulator_agrees_end_to_end(case):
    config, with_telemetry = case
    _assert_configs_agree(config, with_telemetry=with_telemetry)


# ----------------------------------------------------------------------
# 4. The columnar run() report (fault-free vectorized runs report from
#    the ArraySchedule columns without materializing records)
# ----------------------------------------------------------------------
#: Dyadic time quantum: arrivals and max-wait deadlines built from it
#: add exactly, so arrivals land *on* deadlines and tie one another.
_QUANTUM = 2.0 ** -10


def _materialized_report(sim: ServingSimulator, result) -> ServeReport:
    """The report as list arithmetic over materialized records -- the
    object path ``run()`` took before it went columnar."""
    cfg = sim.config
    retrieval = [r.retrieval_latency_s + sim.merge_s for r in result.records]
    tti = [lat + sim.prefill_s for lat in retrieval]

    def stats(xs):
        return LatencyStats(
            n=len(xs), mean_s=sum(xs) / len(xs),
            p50_s=nearest_rank_percentile(xs, 50),
            p95_s=nearest_rank_percentile(xs, 95),
            p99_s=nearest_rank_percentile(xs, 99), max_s=max(xs))

    horizon = result.horizon_s
    makespan = horizon + sim.merge_s + sim.prefill_s
    sizes = [batch.batch_size for batch in result.batches]
    return ServeReport(
        config=cfg, n_completed=len(result.records), makespan_s=makespan,
        throughput_qps=len(result.records) / makespan,
        retrieval=stats(retrieval), tti=stats(tti),
        slo_attainment=sum(1 for t in tti if t <= cfg.slo_s) / len(tti),
        shard_utilization=tuple(min(1.0, busy / horizon)
                                for busy in result.busy_seconds),
        n_batches=len(sizes), mean_batch_size=sum(sizes) / len(sizes))


def _assert_columnar_report_agrees(config: ServeConfig, requests=None):
    """The columnar ``run()`` report equals the scalar engine's, the
    telemetry run's, and the materialized-record report, bit for bit."""
    vec_cfg = dataclasses.replace(config, engine="vectorized")
    sim = ServingSimulator(vec_cfg)
    columnar = sim.run(requests)
    scalar = ServingSimulator(
        dataclasses.replace(config, engine="scalar")).run(requests)
    assert dataclasses.replace(scalar, config=vec_cfg) == columnar
    with_telemetry, _ = ServingSimulator(vec_cfg).run_with_telemetry(
        requests)
    assert with_telemetry == columnar
    stream = requests if requests is not None else poisson_arrivals(
        config.qps, config.n_requests, config.seed)
    assert _materialized_report(sim, sim.scheduler.run(stream)) == columnar
    # repr pins what == cannot see (e.g. the sign of a zero).
    assert repr(columnar) == repr(with_telemetry)


def test_golden_serve_columnar_report():
    _assert_columnar_report_agrees(golden_serve_config())


def test_explicit_arrays_match_request_streams():
    """An arrival array (positional ids) is the same stream as the
    ``Request`` list built from it, on the columnar and object paths."""
    config = dataclasses.replace(golden_serve_config(), engine="vectorized")
    times = poisson_arrival_times(config.qps, config.n_requests, 3)
    from_array = ServingSimulator(config).run(times)
    assert from_array == ServingSimulator(config).run(trace_arrivals(times))
    report, _ = ServingSimulator(config).run_with_telemetry(times)
    assert report == from_array


def _class_service(n_classes: int, base: int, step: int, inc: int):
    """Dyadic synthetic service where shards ``s`` and ``s + n_classes``
    share a class.  Exact sums make different classes collide at the
    same instant often (a cross-class heap tie in roughly one run in
    six), so per-class scan reuse meets simultaneous cross-shard
    events."""
    def service(shard_id: int, batch_size: int) -> float:
        return (base + step * (shard_id % n_classes)
                + inc * (batch_size - 1)) * _QUANTUM / 4
    return service


@st.composite
def quantized_streams(draw, max_requests=60):
    """Tied arrivals on a dyadic grid (many land exactly on a max-wait
    deadline), with shuffled, non-positional request ids."""
    ticks = sorted(draw(st.lists(st.integers(min_value=0, max_value=160),
                                 min_size=1, max_size=max_requests)))
    ids = draw(st.permutations(range(len(ticks))))
    offset = draw(st.integers(min_value=0, max_value=1000))
    requests = [Request(req_id=offset + 3 * pid, arrival_s=t * _QUANTUM)
                for pid, t in zip(ids, ticks)]
    return draw(st.permutations(requests))


@settings(deadline=None, max_examples=60)
@given(requests=quantized_streams(),
       n_shards=st.integers(min_value=1, max_value=8),
       n_classes=st.integers(min_value=1, max_value=3),
       max_batch=st.integers(min_value=1, max_value=8),
       wait_quanta=st.integers(min_value=0, max_value=3),
       base=st.integers(min_value=1, max_value=6),
       step=st.integers(min_value=1, max_value=3),
       inc=st.integers(min_value=0, max_value=2))
def test_schedulers_agree_on_quantized_class_fleets(
        requests, n_shards, n_classes, max_batch, wait_quanta, base, step,
        inc):
    policy = BatchPolicy(max_batch=max_batch,
                         max_wait_s=wait_quanta * _QUANTUM)
    service = _class_service(n_classes, base, step, inc)
    res_s = DiscreteEventScheduler(n_shards, policy, service).run(requests)
    arrays = VectorizedScheduler(n_shards, policy, service).run_arrays(
        *request_columns(requests))
    _assert_columns_match(arrays, res_s)


@pytest.mark.simcore
@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(requests=quantized_streams(max_requests=40),
       n_shards=st.integers(min_value=1, max_value=6),
       extra_chunks=st.integers(min_value=0, max_value=5),
       max_batch=st.integers(min_value=1, max_value=12),
       wait_quanta=st.integers(min_value=0, max_value=4))
def test_columnar_report_agrees_on_uneven_fleets(
        requests, n_shards, extra_chunks, max_batch, wait_quanta):
    """Uneven chunk splits put shards into more than one service class
    (shards holding one extra chunk scan a larger slice)."""
    base = PAPER_CORPORA["10GB"]
    spec = dataclasses.replace(base, label="10GB+uneven",
                               n_chunks=base.n_chunks + extra_chunks)
    config = ServeConfig(
        spec=spec, n_shards=n_shards,
        batch=BatchPolicy(max_batch=max_batch,
                          max_wait_s=wait_quanta * _QUANTUM),
        # Just above the ~501.6 ms prefill: attainment lands in (0, 1).
        k=5, slo_s=0.504)
    _assert_columnar_report_agrees(config, requests)


def test_uneven_split_yields_several_service_classes():
    """The uneven-fleet sweep above really exercises per-class reuse."""
    base = PAPER_CORPORA["10GB"]
    spec = dataclasses.replace(base, n_chunks=base.n_chunks + 2)
    sim = ServingSimulator(ServeConfig(spec=spec, n_shards=4,
                                       engine="vectorized"))
    cls, tables = sim.scheduler._service_classes(64)
    assert len(tables) == 2
    assert cls.tolist() == [0, 0, 1, 1]


# ----------------------------------------------------------------------
# 5. Guard: plain run() never runs the scalar event loop
# ----------------------------------------------------------------------
def test_columnar_run_does_not_materialize(monkeypatch):
    def refuse(self, requests):
        raise AssertionError("fault-free run() ran the scalar event loop")

    config = dataclasses.replace(golden_serve_config(), engine="vectorized")
    with monkeypatch.context() as patch:
        patch.setattr(DiscreteEventScheduler, "run", refuse)
        report = ServingSimulator(config).run()
        assert report.n_completed == config.n_requests
        static = ScaleSimulator(ScaleConfig(
            serve=config, arrivals=(0.0, 1e-3, 1e-3, 4e-3))).run()
        assert static.n_completed == 4
    # An active trace collector is a consumer that needs the objects.
    with collecting() as trace:
        ServingSimulator(config).run()
    expected = (Path(__file__).parents[1] / "goldens"
                / "trace_serve.txt").read_text()
    assert render_trace_golden(trace, "sharded serving") == expected
