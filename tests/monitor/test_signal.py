"""The one burn signal: the window engine of the elastic loop and the
monitor."""

import dataclasses
import math
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor import BurnSignal
from repro.scale import ScaleSimulator, golden_autoscale_config
from repro.scale.simulator import golden_autoscale_fault_config
from repro.serve import ServingSimulator, golden_serve_config
from repro.serve.record import observe_run
from repro.serve.simulator import golden_fault_config


def test_signal_window_counts():
    signal = BurnSignal(window_s=0.010, slo_s=0.050, n_classes=1)
    signal.note_completion(0.001, 0.010)   # within SLO
    signal.note_completion(0.002, 0.060)   # violation
    signal.note_completion(0.009, 0.051)   # violation
    [window] = signal.class_windows(0, 0.010, [3])
    assert window.n_requests == 3 + 3      # completions + overdue
    assert window.n_violations == 2 + 3    # violations + overdue


def test_entries_leave_the_window_as_reads_move_on():
    """As the read time advances, entries older than the window leave
    it."""
    signal = BurnSignal(window_s=0.010, slo_s=0.050, n_classes=1)
    signal.note_completion(0.001, 0.060)
    signal.note_fault(0.001)
    assert signal.recent_faults(0.010) == 1
    [window] = signal.class_windows(0, 0.020, [0])
    assert window.n_requests == 0
    assert signal.recent_faults(0.020) == 0


def test_reads_ignore_entries_past_now():
    signal = BurnSignal(window_s=0.010, slo_s=0.050, n_classes=1)
    signal.note_completion(0.005, 0.060)   # violation
    signal.note_completion(0.015, 0.010)
    signal.note_fault(0.006)
    signal.note_fault(0.016)
    assert signal.class_burns(0.010, [0], 0.5) == [1.0 / 0.5]
    assert signal.recent_faults(0.010) == 1
    assert signal.class_burns(0.020, [0], 0.5) == [0.0]
    assert signal.recent_faults(0.020) == 1


def test_signal_validation():
    with pytest.raises(ValueError):
        BurnSignal(window_s=0.0, slo_s=1.0)
    with pytest.raises(ValueError):
        BurnSignal(window_s=1.0, slo_s=0.0)
    with pytest.raises(ValueError):
        BurnSignal(window_s=1.0, slo_s=1.0, n_classes=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_signal_rejects_non_finite_window_and_slo(bad):
    with pytest.raises(ValueError, match="finite"):
        BurnSignal(window_s=bad, slo_s=1.0)
    with pytest.raises(ValueError, match="finite"):
        BurnSignal(window_s=1.0, slo_s=bad)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_running_counts_equal_a_brute_force_resum(data):
    """Each tick's burns and fault count equal a re-count over the full
    completion and fault history, and the retained columns are the
    history's tail with a consistent violation prefix."""
    n_classes = data.draw(st.integers(min_value=1, max_value=3))
    window_s, slo_s, budget = 0.010, 0.050, 0.01
    signal = BurnSignal(window_s, slo_s, n_classes)
    history = []  # (done_s, violated, class)
    faults = []
    now_s = 0.0
    ops = data.draw(st.lists(st.tuples(
        st.sampled_from(["complete", "fault", "tick"]),
        st.integers(min_value=0, max_value=6),      # time step, ms
        st.sampled_from([10, 50, 51, 90]),          # latency, ms
        st.integers(min_value=0, max_value=n_classes - 1),
        st.integers(min_value=0, max_value=3)),     # overdue
        max_size=80))
    for op, step_ms, latency_ms, cls, overdue in ops:
        now_s += step_ms * 1e-3
        if op == "complete":
            signal.note_completion(now_s, latency_ms * 1e-3, cls)
            history.append((now_s, latency_ms * 1e-3 > slo_s, cls))
            continue
        if op == "fault":
            signal.note_fault(now_s)
            faults.append(now_s)
            continue
        overdue_by_class = [overdue] * n_classes
        burns = signal.class_burns(now_s, overdue_by_class, budget)
        start_s = now_s - window_s
        for c in range(n_classes):
            live = [v for t, v, k in history if k == c and t >= start_s]
            n_requests = len(live) + overdue
            n_violations = sum(live) + overdue
            rate = n_violations / n_requests if n_requests else 0.0
            assert burns[c] == rate / budget
        windows = signal.class_windows(0, now_s, overdue_by_class)
        assert [w.burn_rate(budget) for w in windows] == burns
        assert signal.recent_faults(now_s) \
            == sum(1 for t in faults if t >= start_s)
    for c, (done, bad) in enumerate(zip(signal._done, signal._bad)):
        kept = [(t, v) for t, v, k in history if k == c]
        kept = kept[len(kept) - len(done):]
        assert done == [t for t, _ in kept]
        assert [b - bad[0] for b in bad] \
            == [0, *accumulate(v for _, v in kept)]


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_extend_equals_one_note_per_completion(data):
    """A bulk-loaded signal equals one fed completion by completion,
    read at each instant ahead of and inside the record."""
    n_classes = data.draw(st.integers(min_value=1, max_value=3))
    steps = data.draw(st.lists(st.integers(min_value=0, max_value=4),
                               max_size=60))
    done = list(accumulate(step * 1e-3 for step in steps))
    latency = data.draw(st.lists(st.sampled_from([0.01, 0.05, 0.09]),
                                 min_size=len(done), max_size=len(done)))
    classes = data.draw(st.lists(
        st.integers(min_value=0, max_value=n_classes - 1),
        min_size=len(done), max_size=len(done)))
    bulk = BurnSignal(0.005, 0.05, n_classes)
    bulk.extend(done, latency, None if n_classes == 1 else classes)
    fed = BurnSignal(0.005, 0.05, n_classes)
    instants = [k * 2e-3 for k in range(1, 130)]
    overdue = [[k % 3] * n_classes for k in range(len(instants))]
    want = []
    noted = 0
    for t, overdue_now in zip(instants, overdue):
        while noted < len(done) and done[noted] <= t:
            fed.note_completion(done[noted], latency[noted],
                                0 if n_classes == 1 else classes[noted])
            noted += 1
        want.append(fed.class_burns(t, overdue_now, 0.01))
    assert [bulk.class_burns(t, overdue_now, 0.01)
            for t, overdue_now in zip(instants, overdue)] == want


def test_long_run_drops_the_consumed_prefix():
    """Reads far past the first completions drop them, and the burns
    stay exact across each drop, whether the signal is fed live or
    loaded with the whole record up front."""
    done = [k * 1e-4 for k in range(20_000)]
    latency = [0.09 if k % 7 == 0 else 0.01 for k in range(20_000)]
    signal = BurnSignal(window_s=0.010, slo_s=0.050)
    loaded = BurnSignal(window_s=0.010, slo_s=0.050)
    loaded.extend(done, latency)
    for k, t in enumerate(done):
        signal.note_completion(t, latency[k])
        if k % 100 == 99:
            live = [late > 0.050
                    for when, late in zip(done[:k + 1], latency[:k + 1])
                    if when >= t - 0.010]
            want = [sum(live) / len(live) / 0.01]
            assert signal.class_burns(t, [0], 0.01) == want
            assert loaded.class_burns(t, [0], 0.01) == want
    assert len(signal._done[0]) < 4 * 1024
    assert len(loaded._done[0]) < len(done) // 2


@pytest.mark.monitor
def test_monitor_burn_equals_recorded_tick_burns():
    """At tick instants the burn series is the controller's reading."""
    _report, _telemetry, monitor = ScaleSimulator(
        golden_autoscale_config()).run_with_monitor()
    report = _report
    class_names = [name for name, _ in report.completed_by_class]
    ticks = {a.t_s: a.class_burns for a in report.actions
             if a.kind == "tick" and a.class_burns}
    assert ticks, "golden autoscale run must record tick burns"
    checked = 0
    for cls_index, name in enumerate(class_names):
        series = monitor.get("repro_monitor_slo_burn", **{"class": name})
        by_t = dict(series.points)
        for t_s, burns in ticks.items():
            assert by_t[t_s] == burns[cls_index]
            checked += 1
    assert checked >= len(ticks)


def _static_record(config):
    return lambda: ServingSimulator(config)._simulate(None, capture=True)


def _elastic_record(config):
    return lambda: ScaleSimulator(config)._run_record(capture=True)


def _tight_slo(config):
    """``config`` with an SLO most requests outwait (overdue counts)."""
    if hasattr(config, "serve"):
        return dataclasses.replace(
            config, serve=dataclasses.replace(config.serve, slo_s=0.004))
    return dataclasses.replace(config, slo_s=0.004)


@pytest.mark.parametrize("make_record, cadence_s, overdue_expected", [
    (_static_record(golden_serve_config()), None, False),
    (_static_record(_tight_slo(golden_fault_config())), 0.0071, True),
    (_elastic_record(golden_autoscale_config()), 0.003, False),
    (_elastic_record(_tight_slo(golden_autoscale_fault_config())), 0.0071,
     True),
])
def test_monitor_burn_between_ticks_equals_a_replayed_signal(
        make_record, cadence_s, overdue_expected):
    """Off the recorded ticks the burn series counts the trailing window
    from the completion record: each class's completions in
    ``[t - cadence, t]`` plus its overdue requests, every overdue one a
    violation, replayed here by brute force from the record (no
    ``BurnSignal`` involved)."""
    record = make_record()
    _telemetry, monitor = observe_run(record, workload="replay",
                                      cadence_s=cadence_s)
    result, slo_s = record.result, record.config.slo_s
    names = record.class_names
    series = [monitor.get("repro_monitor_slo_burn", **{"class": name})
              for name in names]
    ticks = {a.t_s for a in record.actions
             if a.kind == "tick" and a.class_burns}
    completions = [(r.retrieval_done_s,
                    record.tti_by_req[r.req_id] > slo_s,
                    record.priorities.get(r.req_id, 0))
                   for r in result.records if r.retrieval_done_s is not None]
    checked = overdue_seen = 0
    for index, t in enumerate(monitor.instants):
        if t in ticks:
            continue
        n_requests = [0] * len(names)
        n_violations = [0] * len(names)
        for done, violated, cls in completions:
            if t - monitor.cadence_s <= done <= t:
                n_requests[cls] += 1
                n_violations[cls] += violated
        for r in result.records:
            if t - r.arrival_s > slo_s and (r.retrieval_done_s is None
                                           or r.retrieval_done_s > t):
                cls = record.priorities.get(r.req_id, 0)
                n_requests[cls] += 1
                n_violations[cls] += 1
                overdue_seen += 1
        want = [(bad / n if n else 0.0) / record.error_budget
                for n, bad in zip(n_requests, n_violations)]
        assert [s.points[index][1] for s in series] == want, t
        checked += 1
    assert checked > 0
    assert (overdue_seen > 0) == overdue_expected
