"""Builder semantics: sampling rules, instants, and input validation."""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.monitor import (
    MonitorError,
    RunMonitor,
    Series,
    build_run_monitor,
    sample_instants,
)
from repro.monitor.build import _cumulative_points, overdue_counts
from repro.scale import ScaleSimulator, golden_autoscale_config
from repro.serve.scheduler import BatchPolicy
from repro.serve.simulator import ServingSimulator, golden_serve_config

ENGINES = ("scalar", "vectorized")


# -- sampling instants -------------------------------------------------


def test_sample_instants_ladder_extends_past_horizon():
    instants = sample_instants(0.025, 0.010)
    assert instants == (0.01, 0.02, 0.01 + 0.01 + 0.01)
    assert instants[-1] >= 0.025


def test_sample_instants_matches_tick_recurrence_bitwise():
    """The ladder reproduces the elastic tick recurrence t += interval."""
    interval = 0.010
    ticks = []
    t = interval           # first tick is pushed at the literal interval
    while t < 0.1:
        ticks.append(t)
        t = t + interval   # then re-pushed at now + interval
    instants = sample_instants(ticks[-1], interval, extra=ticks)
    # exact-float dedup: every tick IS a ladder instant, so merging
    # the recorded ticks adds nothing.
    assert len(instants) == len(set(instants))
    for tick in ticks:
        assert tick in instants


def test_sample_instants_empty_run_and_validation():
    assert sample_instants(0.0, 0.010) == (0.010,)
    with pytest.raises(ValueError):
        sample_instants(1.0, 0.0)


def test_sample_instants_merges_extra():
    instants = sample_instants(0.02, 0.010, extra=[0.0153])
    assert 0.0153 in instants
    assert instants == tuple(sorted(instants))


# -- the sample-before-transition boundary rule (satellite pin) --------


@pytest.mark.monitor
@pytest.mark.parametrize("engine", ENGINES)
def test_pool_sample_at_transition_tick_is_pre_transition(engine):
    """A scale transition at tick ``t`` is invisible to the sample at ``t``.

    The elastic loop records each tick's ``pool_size`` *before*
    applying the controller verdict; the monitor's gauge rule (sample
    strictly before the instant) must therefore reproduce exactly the
    recorded pre-transition size at every tick -- including the ticks
    where a detach or warm-up lands at that same instant.  Pinned on
    both engines.
    """
    config = golden_autoscale_config()
    serve = dataclasses.replace(config.serve, engine=engine)
    config = dataclasses.replace(config, serve=serve)
    report, _telemetry, monitor = \
        ScaleSimulator(config).run_with_monitor()

    ticks = [a for a in report.actions if a.kind == "tick"]
    transitions = {a.t_s for a in report.actions
                   if a.kind in ("warm", "detach", "dead")}
    assert any(t.t_s in transitions for t in ticks), \
        "golden run must have a transition landing on a tick"

    pool = dict(monitor.get("repro_monitor_pool_size").points)
    for tick in ticks:
        assert pool[tick.t_s] == float(tick.pool_size)


@pytest.mark.monitor
def test_queue_sample_excludes_events_at_instant():
    """Gauges ignore sub-tick events at exactly the sample instant."""
    report, _telemetry, monitor = \
        ScaleSimulator(golden_autoscale_config()).run_with_monitor()
    del report
    queue = monitor.get("repro_monitor_queue_depth")
    assert queue.points[-1][1] == 0.0  # drained by the final sample


def test_counter_final_sample_is_end_of_run_total():
    report, _telemetry, monitor = \
        ServingSimulator(golden_serve_config()).run_with_monitor()
    completed = monitor.get("repro_monitor_completed_total")
    assert completed.final() == float(report.n_completed)
    # counters are non-decreasing
    values = [v for _, v in completed.points]
    assert values == sorted(values)


def test_qps_windows_sum_to_completions():
    """qps * cadence summed over the ladder conserves completions."""
    report, _telemetry, monitor = \
        ServingSimulator(golden_serve_config()).run_with_monitor()
    qps = monitor.get("repro_monitor_qps")
    total = sum(v * monitor.cadence_s for _, v in qps.points)
    assert total == pytest.approx(report.n_completed, rel=1e-9)


def test_burn_window_keeps_a_completion_at_its_start():
    """A completion exactly at ``t - cadence`` still counts at ``t``: the
    shared signal only drops completions older than the window start."""
    def request(req_id, arrival_s, done_s):
        return SimpleNamespace(req_id=req_id, arrival_s=arrival_s,
                               retrieval_done_s=done_s,
                               shard_done_s={0: done_s}, failed_shards=set())

    result = SimpleNamespace(
        records=(request(0, 0.0, 0.01), request(1, 0.02, 0.025)),
        batches=(), fault_log=(), death_times={})
    monitor = build_run_monitor(
        workload="tie", result=result, slo_s=0.005, error_budget=0.5,
        class_names=("all",), priorities={}, tti_by_req={0: 0.01, 1: 0.001},
        batch_bytes=[], pool_initial=1, registry_exposition="",
        cadence_s=0.01)
    assert monitor.instants == (0.01, 0.02, 0.03)
    assert monitor.instants[1] - 0.01 == 0.01
    burn = monitor.get("repro_monitor_slo_burn", **{"class": "all"})
    # One violating completion in [0.01, 0.02]; the on-time one lands
    # alone in [0.02, 0.03].
    assert [value for _, value in burn.points] == [2.0, 2.0, 0.0]


# -- builder validation ------------------------------------------------


def test_batch_bytes_length_mismatch_raises():
    report, _telemetry, _monitor = \
        ServingSimulator(golden_serve_config()).run_with_monitor()
    del report
    _report, telemetry = \
        ServingSimulator(golden_serve_config()).run_with_telemetry()
    result = telemetry.builder.result
    with pytest.raises(ValueError):
        build_run_monitor(
            workload="serve", result=result, slo_s=1.0,
            error_budget=0.01, class_names=("all",), priorities={},
            tti_by_req={}, batch_bytes=[1],  # wrong length
            pool_initial=4,
            registry_exposition=telemetry.registry.expose())


def test_series_duplicate_key_rejected():
    s = Series(name="x", help_text="h", kind="gauge",
               points=((0.0, 1.0),))
    with pytest.raises(MonitorError):
        RunMonitor(workload="w", cadence_s=0.01, horizon_s=1.0,
                   instants=(0.01,), series=(s, s))


def test_series_kind_validation():
    with pytest.raises(MonitorError):
        Series(name="x", help_text="h", kind="summary")


def test_monitor_get_unknown_series():
    report, _telemetry, monitor = \
        ServingSimulator(golden_serve_config()).run_with_monitor()
    del report
    with pytest.raises(MonitorError):
        monitor.get("repro_monitor_nope")
    assert "repro_monitor_qps" in monitor.names()


def test_monitor_round_trip():
    _report, _telemetry, monitor = \
        ServingSimulator(golden_serve_config()).run_with_monitor()
    from repro.monitor import RunMonitor as RM

    again = RM.from_dict(monitor.to_dict())
    assert again == monitor


# -- overdue counts ------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_weighted_cumulative_points_equal_the_sorted_fold(seed):
    """Weights add up as one left fold in (time, weight) order, ties
    and non-integral weights included (where the order shows)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 50))
    times = rng.choice(rng.uniform(0.0, 1.0, 6), n).tolist()
    weights = (rng.uniform(0.0, 1e9, n) * rng.choice([1.0, 1e-7], n)).tolist()
    instants = sorted(set(rng.uniform(-0.1, 1.1, 12).tolist() + times[:3]))
    pairs = sorted(zip(times, weights))
    want = []
    for t in instants:
        total = 0.0
        for when, weight in pairs:
            if when <= t:
                total += weight
        want.append((t, total))
    assert _cumulative_points(instants, times, weights) == want


def _broadcast_overdue(instants, arrival, done, slo_s, classes, n_classes):
    """The instants x requests reference the searchsorted form replaces."""
    overdue = ((instants[:, None] - arrival[None, :] > slo_s)
               & (done[None, :] > instants[:, None]))
    return np.stack([overdue[:, classes == cls].sum(axis=1)
                     for cls in range(n_classes)], axis=1)


@pytest.mark.parametrize("seed", range(40))
def test_overdue_counts_equal_the_broadcast(seed):
    rng = np.random.default_rng(seed)
    n_instants = int(rng.integers(1, 40))
    n_requests = int(rng.integers(0, 60))
    instants = np.unique(rng.uniform(0.0, 1.0, n_instants))
    slo_s = float(rng.choice([0.05, 0.1, 0.3, 1e-9]))
    arrival = rng.uniform(-0.2, 1.0, n_requests)
    # Put some arrivals exactly one SLO before an instant: the
    # predicate ``t - arrival > slo`` is then decided by float rounding
    # of the subtraction, where ``arrival + slo`` alone would misplace
    # the boundary.
    hits = rng.random(n_requests) < 0.5
    picks = rng.choice(instants, n_requests)
    arrival[hits] = picks[hits] - slo_s
    nudge = rng.integers(-2, 3, n_requests)
    arrival = np.array([np.nextafter(a, np.inf * np.sign(k)) if k else a
                        for a, k in zip(arrival, nudge)])
    done = arrival + rng.uniform(0.0, 1.5, n_requests)
    done[rng.random(n_requests) < 0.2] = np.inf   # never resolved
    done[rng.random(n_requests) < 0.2] = rng.choice(instants)
    n_classes = int(rng.integers(1, 4))
    classes = rng.integers(0, n_classes, n_requests)
    got = overdue_counts(instants, arrival, done, slo_s, classes, n_classes)
    want = _broadcast_overdue(instants, arrival, done, slo_s, classes,
                              n_classes)
    assert got.shape == (instants.size, n_classes)
    assert np.array_equal(got, want)
    single = overdue_counts(instants, arrival, done, slo_s)
    assert np.array_equal(single[:, 0], want.sum(axis=1))


def test_overdue_counts_exact_boundary():
    """Ties ``t - arrival == slo`` are not overdue, and arrivals whose
    ``arrival + slo`` rounds to the other side of an instant than the
    exact predicate still count by the predicate."""
    slo_s = 0.1
    instants = np.unique(np.random.default_rng(7).uniform(0.1, 1.0, 200))
    ties, flips = [], []
    for t in instants:
        for a in (t - slo_s, np.nextafter(t - slo_s, 0.0),
                  np.nextafter(t - slo_s, 1.0)):
            if t - a == slo_s:
                ties.append(a)
            elif (t - a > slo_s) != (t > a + slo_s):
                flips.append(a)
    assert ties and flips
    arrival = np.array(ties + flips)
    done = np.full(arrival.size, np.inf)
    got = overdue_counts(instants, arrival, done, slo_s)
    want = _broadcast_overdue(instants, arrival, done, slo_s,
                              np.zeros(arrival.size, dtype=np.int64), 1)
    assert np.array_equal(got, want)


@pytest.mark.slow
@pytest.mark.monitor
def test_100k_request_monitor_runs_in_bounded_memory():
    """An observed 100k-request run stays far below the instants x
    requests matrix (~2.5e9 cells here) a broadcast overdue count
    would allocate."""
    config = dataclasses.replace(
        golden_serve_config(), n_shards=1, n_requests=100_000,
        batch=BatchPolicy(max_batch=16, max_wait_s=2e-3))
    tracemalloc.start()
    try:
        report, _telemetry, monitor = \
            ServingSimulator(config).run_with_monitor()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.n_completed == 100_000
    assert len(monitor.instants) * report.n_completed > 2e9
    assert peak < 512 * 2**20
