"""The shared burn signal: one window engine for controller and monitor."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor import BurnSignal
from repro.scale import ScalePolicy, ScaleSimulator, golden_autoscale_config
from repro.scale.controller import BurnRateController
from repro.scale.simulator import golden_autoscale_fault_config
from repro.serve import ServingSimulator, golden_serve_config
from repro.serve.record import observe_run
from repro.serve.simulator import golden_fault_config


def test_controller_is_backed_by_shared_signal():
    policy = ScalePolicy()
    controller = BurnRateController(policy.autoscale, slo_s=0.5,
                                    n_classes=2)
    assert isinstance(controller.signal, BurnSignal)


def test_controller_windows_match_standalone_signal():
    """The controller's readings are exactly the shared signal's."""
    policy = ScalePolicy()
    slo_s = 0.05
    controller = BurnRateController(policy.autoscale, slo_s=slo_s,
                                    n_classes=2)
    twin = BurnSignal(policy.autoscale.control_interval_s, slo_s,
                      n_classes=2)

    events = [
        (0.004, 0.010, 0), (0.006, 0.090, 1), (0.012, 0.020, 0),
        (0.015, 0.300, 1), (0.021, 0.049, 0), (0.028, 0.051, 1),
    ]
    ticks = [(0.010, [0, 0]), (0.020, [1, 0]), (0.030, [0, 2])]
    event_index = 0
    for tick_index, (now_s, overdue) in enumerate(ticks):
        while event_index < len(events) and events[event_index][0] <= now_s:
            done_s, latency_s, cls = events[event_index]
            controller.note_completion(done_s, latency_s, cls)
            twin.note_completion(done_s, latency_s, cls)
            event_index += 1
        got = controller.class_burns(now_s, overdue)
        want = [window.burn_rate(policy.autoscale.error_budget)
                for window in twin.class_windows(tick_index, now_s,
                                                 overdue)]
        assert got == want


def test_signal_window_counts():
    signal = BurnSignal(window_s=0.010, slo_s=0.050, n_classes=1)
    signal.note_completion(0.001, 0.010)   # within SLO
    signal.note_completion(0.002, 0.060)   # violation
    signal.note_completion(0.009, 0.051)   # violation
    [window] = signal.class_windows(0, 0.010, [3])
    assert window.n_requests == 3 + 3      # completions + overdue
    assert window.n_violations == 2 + 3    # violations + overdue


def test_signal_advance_drops_old_entries():
    signal = BurnSignal(window_s=0.010, slo_s=0.050, n_classes=1)
    signal.note_completion(0.001, 0.060)
    signal.note_fault(0.001)
    [window] = signal.class_windows(0, 0.020, [0])
    assert window.n_requests == 0
    assert signal.recent_faults() == 0


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
    """The per-class violation counts a tick reads equal a re-sum of
    the trailing deque, and the tick's burns equal the window
    arithmetic over the full completion history."""
    n_classes = data.draw(st.integers(min_value=1, max_value=3))
    window_s, slo_s, budget = 0.010, 0.050, 0.01
    signal = BurnSignal(window_s, slo_s, n_classes)
    history = []  # (done_s, violated, class)
    now_s = 0.0
    ops = data.draw(st.lists(st.tuples(
        st.sampled_from(["complete", "advance", "tick"]),
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
        if op == "advance":
            signal.advance(now_s - window_s)
        else:
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
        for c, completions in enumerate(signal._completions):
            assert signal._violations[c] \
                == sum(1 for _, violated in completions if violated)


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
    from the completion record: bitwise what a twin BurnSignal, fed the
    completions in order and the brute-force overdue counts, reads."""
    record = make_record()
    _telemetry, monitor = observe_run(record, workload="replay",
                                      cadence_s=cadence_s)
    result, slo_s = record.result, record.config.slo_s
    names = record.class_names
    signal = BurnSignal(monitor.cadence_s, slo_s, len(names))
    series = [monitor.get("repro_monitor_slo_burn", **{"class": name})
              for name in names]
    ticks = {a.t_s for a in record.actions
             if a.kind == "tick" and a.class_burns}
    completions = sorted((r.retrieval_done_s, r.req_id)
                         for r in result.records
                         if r.retrieval_done_s is not None)
    noted = checked = overdue_seen = 0
    for index, t in enumerate(monitor.instants):
        while noted < len(completions) and completions[noted][0] <= t:
            done, req_id = completions[noted]
            signal.note_completion(done, record.tti_by_req[req_id],
                                   record.priorities.get(req_id, 0))
            noted += 1
        if t in ticks:
            continue
        overdue = [0] * len(names)
        for r in result.records:
            if t - r.arrival_s > slo_s and (r.retrieval_done_s is None
                                           or r.retrieval_done_s > t):
                overdue[record.priorities.get(r.req_id, 0)] += 1
        overdue_seen += sum(overdue)
        want = signal.class_burns(t, overdue, record.error_budget)
        assert [s.points[index][1] for s in series] == want, t
        checked += 1
    assert checked > 0
    assert (overdue_seen > 0) == overdue_expected
