"""Derive the monitor's time series from a run's causal record.

Like the telemetry pipeline, the monitor samples **after** the run,
from the scheduler's deterministic outputs (the
:class:`~repro.serve.scheduler.ScheduleResult`, the autoscaler's
action log, the fault log) -- never from hooks inside the event loop.
Monitoring-off runs are therefore byte-identical to unmonitored ones,
and the scalar and vectorized engines produce bit-identical series
because both produce bit-identical causal records (the differential
suite pins both properties).

Sampling instants are the fixed cadence ladder (repeated addition from
zero, matching the autoscaler's tick recurrence bit-for-bit when the
cadence equals the control interval) merged with the recorded control
tick instants, deduplicated by exact float equality.

Two sampling rules, pinned by regression tests on both engines:

* **Gauges sample state strictly before the instant** (the
  sample-before-transition rule): a scale transition executing exactly
  at tick ``t`` is *not* visible in the sample at ``t``.  The elastic
  loop records ``pool_size`` on each tick action before applying the
  controller verdict, so the monitor's pool sample at a tick equals
  the recorded pre-transition size even when a detach fires at that
  exact instant.
* **Counters include events at the instant** (``event_t <= t``), so
  the final sample -- taken at or past the horizon -- provably equals
  the end-of-run registry value.

At recorded tick instants the per-class burn series takes the
controller's own reading (``ScaleAction.class_burns``, written by the
elastic loop from the shared :class:`~repro.monitor.signal.BurnSignal`);
between ticks, and for static runs, the builder replays a twin
``BurnSignal`` over the completion record.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .series import RunMonitor, Series
from .signal import BurnSignal
from .sketch import QuantileSketch

__all__ = [
    "DEFAULT_CADENCE_S",
    "MONITOR_PREFIX",
    "build_run_monitor",
    "sample_instants",
]

#: Default sampling cadence, matching the autoscaler's default control
#: interval so elastic-run samples land exactly on tick instants.
DEFAULT_CADENCE_S = 0.010

#: Every monitor series name starts with this.
MONITOR_PREFIX = "repro_monitor_"

#: TTI quantiles streamed from the cumulative sketch.
_QUANTILES = (50.0, 95.0, 99.0)


def sample_instants(horizon_s: float, cadence_s: float,
                    extra: Sequence[float] = ()) -> Tuple[float, ...]:
    """The cadence ladder through ``horizon_s``, merged with ``extra``.

    The ladder is generated by repeated addition (``t += cadence``)
    starting from zero -- the same recurrence the elastic loop uses to
    push control ticks -- so tick instants coincide bitwise with
    ladder instants when the cadence equals the control interval.  The
    ladder always extends one step past the horizon so the final
    sample is a complete end-of-run reading.  ``extra`` instants
    (recorded ticks) are merged with exact-float dedup.
    """
    if cadence_s <= 0:
        raise ValueError(f"cadence_s must be positive, got {cadence_s!r}")
    instants: List[float] = []
    t = 0.0
    while t < horizon_s:
        t += cadence_s
        instants.append(t)
    if not instants:
        instants.append(cadence_s)
    merged = sorted(set(instants) | set(float(e) for e in extra))
    return tuple(merged)


def _gauge(name: str, help_text: str, points: Sequence[Tuple[float, float]],
           labels: Tuple[Tuple[str, str], ...] = ()) -> Series:
    return Series(name=MONITOR_PREFIX + name, help_text=help_text,
                  kind="gauge", labels=labels, points=tuple(points))


def _counter(name: str, help_text: str,
             points: Sequence[Tuple[float, float]],
             labels: Tuple[Tuple[str, str], ...] = ()) -> Series:
    return Series(name=MONITOR_PREFIX + name, help_text=help_text,
                  kind="counter", labels=labels, points=tuple(points))


def _step_value(steps: Sequence[Tuple[float, float]], initial: float,
                t: float) -> float:
    """Value of a step function strictly before ``t`` (gauge rule)."""
    value = initial
    for when, level in steps:
        if when < t:
            value = level
        else:
            break
    return value


def _scan_quantiles(sketch: QuantileSketch,
                    ranks: Sequence[int]) -> List[float]:
    """All quantile answers in one cumulative pass (ranks ascending).

    Same smallest-boundary >= nearest-rank rule as
    :meth:`QuantileSketch.quantile`, answered for every rank at once.
    """
    values: List[float] = []
    cumulative = 0
    index = 0
    for bound, n in zip(sketch.boundaries, sketch.counts):
        cumulative += n
        while index < len(ranks) and cumulative >= ranks[index]:
            values.append(bound)
            index += 1
        if index == len(ranks):
            break
    while index < len(ranks):
        values.append(math.inf)
        index += 1
    return values


def _cumulative_points(instants: Sequence[float],
                       event_times: Sequence[float],
                       weights: Optional[Sequence[float]] = None,
                       ) -> List[Tuple[float, float]]:
    """Counter samples: total event weight with ``event_t <= t``."""
    times = sorted(event_times) if weights is None else None
    if weights is None:
        assert times is not None
        return [(t, float(bisect.bisect_right(times, t)))
                for t in instants]
    pairs = sorted(zip(event_times, weights))
    sorted_times = [p[0] for p in pairs]
    prefix: List[float] = [0.0]
    for _, w in pairs:
        prefix.append(prefix[-1] + float(w))
    return [(t, prefix[bisect.bisect_right(sorted_times, t)])
            for t in instants]


def build_run_monitor(
    *,
    workload: str,
    result: Any,
    slo_s: float,
    error_budget: float,
    class_names: Sequence[str],
    priorities: Mapping[int, int],
    tti_by_req: Mapping[int, float],
    batch_bytes: Sequence[int],
    pool_initial: int,
    registry_exposition: str,
    cadence_s: float = DEFAULT_CADENCE_S,
    actions: Sequence[Any] = (),
    attach_bytes: Mapping[int, int] = {},
) -> RunMonitor:
    """Sample every monitor series from one run's causal record.

    ``result`` is the engine-invariant
    :class:`~repro.serve.scheduler.ScheduleResult`; ``actions`` the
    elastic loop's :class:`~repro.scale.simulator.ScaleAction` log
    (empty for static runs); ``priorities`` maps request id to
    priority-class index (class 0 for every request in static runs);
    ``tti_by_req`` the reported TTI per completed request (bitwise the
    value the burn signal saw in-loop); ``batch_bytes`` the HBM bytes
    streamed per executed batch, parallel to ``result.batches``;
    ``attach_bytes`` the warm-up corpus bytes DMA'd in per attached
    shard (elastic runs).
    """
    if len(batch_bytes) != len(result.batches):
        raise ValueError(
            f"batch_bytes has {len(batch_bytes)} entries for "
            f"{len(result.batches)} batches")
    n_classes = max(1, len(class_names))
    names = tuple(class_names) if class_names else ("all",)

    # -- the event streams everything below samples from ---------------
    records = result.records
    completions = sorted(
        (r.retrieval_done_s, r.req_id) for r in records
        if r.retrieval_done_s is not None)
    completion_times = [t for t, _ in completions]
    ticks = [a for a in actions if a.kind == "tick"]
    fault_times = [e.t_s for e in result.fault_log]
    horizon = 0.0
    if completion_times:
        horizon = max(horizon, completion_times[-1])
    if ticks:
        horizon = max(horizon, max(t.t_s for t in ticks))
    if fault_times:
        horizon = max(horizon, max(fault_times))
    instants = sample_instants(horizon, cadence_s,
                               extra=[t.t_s for t in ticks])
    tick_burns: Dict[float, Tuple[float, ...]] = {
        t.t_s: tuple(t.class_burns) for t in ticks
        if getattr(t, "class_burns", ())}

    # -- pool size: step function from the action log / death log ------
    pool_steps: List[Tuple[float, float]] = []
    if actions:
        for a in actions:
            if a.kind in ("warm", "detach", "dead"):
                pool_steps.append((a.t_s, float(a.pool_size)))
    else:
        alive = pool_initial
        for when in sorted(result.death_times.values()):
            alive -= 1
            pool_steps.append((when, float(alive)))
    pool_points = [(t, _step_value(pool_steps, float(pool_initial), t))
                   for t in instants]

    # -- queue depth: replay enqueue/dispatch/re-enqueue/clear ----------
    # Ordering codes break exact-time ties deterministically; gauges
    # sample strictly before the instant so same-time order within one
    # instant never leaks into a sample.
    _ENQ, _DEQ, _REENQ, _CLEAR = 0, 1, 2, 3
    queue_events: List[Tuple[float, int, int, int]] = []
    for r in records:
        touched = set(r.shard_done_s) | set(r.failed_shards)
        for shard in touched:
            queue_events.append((r.arrival_s, _ENQ, shard, 1))
    for b in result.batches:
        queue_events.append((b.dispatch_s, _DEQ, b.shard_id, b.batch_size))
        if b.outcome != "ok":
            queue_events.append((b.dispatch_s + b.service_s, _REENQ,
                                 b.shard_id, b.batch_size))
    for shard, when in result.death_times.items():
        queue_events.append((when, _CLEAR, shard, 0))
    queue_events.sort()
    depth_by_shard: Dict[int, int] = {}
    queue_points: List[Tuple[float, float]] = []
    qi = 0
    for t in instants:
        while qi < len(queue_events) and queue_events[qi][0] < t:
            when, code, shard, n = queue_events[qi]
            if code == _ENQ or code == _REENQ:
                depth_by_shard[shard] = depth_by_shard.get(shard, 0) + n
            elif code == _DEQ:
                depth_by_shard[shard] = depth_by_shard.get(shard, 0) - n
            else:
                depth_by_shard[shard] = 0
            qi += 1
        queue_points.append((t, float(sum(depth_by_shard.values()))))

    # -- inflight requests: admitted and not yet resolved ---------------
    arrivals_sorted = sorted(r.arrival_s for r in records)
    inflight_points = [
        (t, float(bisect.bisect_left(arrivals_sorted, t)
                  - bisect.bisect_left(completion_times, t)))
        for t in instants]

    # -- rolling qps: completions in the trailing cadence window --------
    qps_points = [
        (t, (bisect.bisect_right(completion_times, t)
             - bisect.bisect_right(completion_times, t - cadence_s))
         / cadence_s)
        for t in instants]

    # -- TTI quantiles from the cumulative mergeable sketch -------------
    # One cumulative scan answers all three quantiles (the ranks are
    # ascending with the percentiles), bit-identical to calling
    # ``sketch.quantile`` per percentile but ~3x cheaper per instant.
    sketch = QuantileSketch()
    quantile_points: Dict[float, List[Tuple[float, float]]] = {
        q: [] for q in _QUANTILES}
    ci = 0
    total = 0
    for t in instants:
        while ci < len(completions) and completions[ci][0] <= t:
            _, req_id = completions[ci]
            sketch.observe(tti_by_req[req_id])
            ci += 1
            total += 1
        if not total:
            for q in _QUANTILES:
                quantile_points[q].append((t, 0.0))
            continue
        ranks = [max(1, math.ceil(q / 100.0 * total)) for q in _QUANTILES]
        values = _scan_quantiles(sketch, ranks)
        for q, value in zip(_QUANTILES, values):
            quantile_points[q].append((t, value))

    # -- per-class SLO burn: recorded at ticks, replayed between --------
    class_of: Dict[int, int] = {}
    arr_lists: List[List[float]] = [[] for _ in range(n_classes)]
    done_lists: List[List[float]] = [[] for _ in range(n_classes)]
    for r in records:
        cls = int(priorities.get(r.req_id, 0))
        class_of[r.req_id] = cls
        arr_lists[cls].append(r.arrival_s)
        done_lists[cls].append(
            r.retrieval_done_s if r.retrieval_done_s is not None
            else np.inf)
    arr_by_class = [np.asarray(a, dtype=np.float64) for a in arr_lists]
    done_by_class = [np.asarray(d, dtype=np.float64) for d in done_lists]
    # One broadcast per class beats a numpy call per instant: the
    # elementwise comparisons are identical floats either way.
    ts = np.asarray(instants, dtype=np.float64)
    overdue_by_instant = [
        ((ts[:, None] - arr_by_class[cls][None, :] > slo_s)
         & (done_by_class[cls][None, :] > ts[:, None])).sum(axis=1)
        if arr_by_class[cls].size
        else np.zeros(len(instants), dtype=np.int64)
        for cls in range(n_classes)]
    replay = BurnSignal(cadence_s, slo_s, n_classes)
    burn_points: List[List[Tuple[float, float]]] = [
        [] for _ in range(n_classes)]
    bi = 0
    for i, t in enumerate(instants):
        while bi < len(completions) and completions[bi][0] <= t:
            done_s, req_id = completions[bi]
            replay.note_completion(done_s, tti_by_req[req_id],
                                   class_of[req_id])
            bi += 1
        overdue = [int(overdue_by_instant[cls][i])
                   for cls in range(n_classes)]
        burns = replay.class_burns(t, overdue, error_budget)
        recorded = tick_burns.get(t)
        for cls in range(n_classes):
            if recorded is not None and cls < len(recorded):
                burn = recorded[cls]
            else:
                burn = burns[cls]
            burn_points[cls].append((t, burn))

    # -- cumulative counters --------------------------------------------
    completed_points = _cumulative_points(instants, completion_times)
    retry_times = [e.t_s for e in result.fault_log if e.kind == "backoff"]
    retry_points = _cumulative_points(instants, retry_times)
    byte_times = [b.dispatch_s for b in result.batches]
    byte_weights = [float(n) for n in batch_bytes]
    for a in actions:
        if a.kind == "attach" and a.shard_id in attach_bytes:
            byte_times.append(a.t_s)
            byte_weights.append(float(attach_bytes[a.shard_id]))
    hbm_points = _cumulative_points(instants, byte_times, byte_weights)

    series: List[Series] = [
        _gauge("pool_size", "Serving shards (pre-transition at ticks).",
               pool_points),
        _gauge("queue_depth", "Queued requests summed over shard queues.",
               queue_points),
        _gauge("inflight_requests",
               "Admitted requests not yet resolved.", inflight_points),
        _gauge("qps", "Completions per second over the trailing cadence "
               "window.", qps_points),
    ]
    for q in _QUANTILES:
        series.append(_gauge(
            "tti_quantile_seconds",
            "Streaming TTI quantile from the cumulative mergeable "
            "sketch.", quantile_points[q],
            labels=(("q", f"{q:g}"),)))
    for cls in range(n_classes):
        series.append(_gauge(
            "slo_burn",
            "Per-class trailing-window error-budget burn (controller "
            "readings at ticks).", burn_points[cls],
            labels=(("class", names[cls]),)))
    series.append(_counter(
        "completed_total", "Requests resolved.", completed_points))
    series.append(_counter(
        "retries_total", "Batch retry backoffs.", retry_points))
    series.append(_counter(
        "hbm_bytes_total",
        "HBM bytes streamed: batch reads at dispatch plus warm-up "
        "corpus DMA at attach.", hbm_points))
    if actions:
        shed_times = [a.t_s for a in actions if a.kind == "shed"]
        series.append(_counter(
            "shed_total", "Requests rejected by admission control.",
            _cumulative_points(instants, shed_times)))
        failover_times = [a.t_s for a in actions
                          if a.kind == "attach" and a.reason == "failover"]
        series.append(_counter(
            "failover_total",
            "Cooldown-bypassing replacement attaches after shard "
            "deaths.", _cumulative_points(instants, failover_times)))
    if result.fault_log:
        kinds = sorted({e.kind for e in result.fault_log})
        for kind in kinds:
            times = [e.t_s for e in result.fault_log if e.kind == kind]
            series.append(_counter(
                "fault_events_total",
                "Fault-handling and integrity/ECC verdict events by "
                "kind.", _cumulative_points(instants, times),
                labels=(("kind", kind),)))

    return RunMonitor(
        workload=workload,
        cadence_s=cadence_s,
        horizon_s=horizon,
        instants=instants,
        series=tuple(series),
        registry_exposition=registry_exposition,
    )
