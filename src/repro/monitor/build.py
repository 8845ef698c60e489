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
#: ``q / 100`` per quantile, as the nearest-rank rule computes it.
_QUANTILE_FRACTIONS = np.asarray(_QUANTILES)[None, :] / 100.0
#: The sketch's bucket boundaries, then ``inf`` for its overflow bucket.
_SKETCH_BOUNDS = np.asarray(QuantileSketch().boundaries + (math.inf,))


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


def overdue_counts(instants: np.ndarray, arrival_s: np.ndarray,
                   done_s: np.ndarray, slo_s: float,
                   classes: Optional[np.ndarray] = None,
                   n_classes: int = 1) -> np.ndarray:
    """Per instant ``t`` and class: requests with ``t - arrival > slo``
    and ``done > t``, as an ``(instants, classes)`` array.

    Both predicates are monotone in ``t``, so each request is overdue
    over one contiguous run of (sorted) instants: one ``searchsorted``
    finds each end, and a difference array sums the runs in
    O((N + I) log I) time and O(N + I) memory.  The start search uses
    ``arrival + slo``, whose rounding can miss the boundary of the exact
    float predicate, so the start then steps until the predicate itself
    fails one instant earlier and holds at the start.
    """
    n = instants.size
    padded = np.concatenate(([-np.inf], instants, [np.inf]))
    start = np.searchsorted(instants, arrival_s + slo_s, side="right")
    while True:  # padded[start] is the instant before the start
        back = padded[start] - arrival_s > slo_s
        if not back.any():
            break
        start -= back
    while True:  # padded[start + 1] is the start instant
        ahead = padded[start + 1] - arrival_s <= slo_s
        if not ahead.any():
            break
        start += ahead
    end = np.searchsorted(instants, done_s, side="left")
    live = start < end
    offset = 0 if classes is None else classes[live] * (n + 1)
    size = n_classes * (n + 1)
    diff = (np.bincount(start[live] + offset, minlength=size)
            - np.bincount(end[live] + offset, minlength=size))
    return np.cumsum(diff.reshape(n_classes, n + 1)[:, :n], axis=1).T


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
    arrival_s = [r.arrival_s for r in records]
    done_s = [r.retrieval_done_s for r in records]
    completions = sorted(
        (done, r.req_id) for r, done in zip(records, done_s)
        if done is not None)
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
    ts = np.asarray(instants, dtype=np.float64)
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

    # -- queue depth: enqueue/dispatch/re-enqueue steps, deaths clear --
    # Sampled strictly before the instant.  A death's clear is a step of
    # minus its shard's depth (every step on it up to the death, ties in).
    step_times = list(arrival_s)
    steps = [len(r.shard_done_s.keys() | r.failed_shards) for r in records]
    for b in result.batches:
        step_times.append(b.dispatch_s)
        steps.append(-len(b.request_ids))
        if b.outcome != "ok":
            step_times.append(b.dispatch_s + b.service_s)
            steps.append(len(b.request_ids))
    for shard, when in result.death_times.items():
        depth = sum(1 for r in records if r.arrival_s <= when and (
            shard in r.shard_done_s or shard in r.failed_shards))
        for b in result.batches:
            if b.shard_id != shard:
                continue
            if b.dispatch_s <= when:
                depth -= len(b.request_ids)
            if b.outcome != "ok" and b.dispatch_s + b.service_s <= when:
                depth += len(b.request_ids)
        step_times.append(when)
        steps.append(-depth)
    step_t = np.asarray(step_times, dtype=np.float64)
    order = np.argsort(step_t, kind="stable")
    depth_before = np.concatenate(
        ([0], np.cumsum(np.asarray(steps, dtype=np.int64)[order])))
    queue_points = list(zip(instants, depth_before[np.searchsorted(
        step_t[order], ts, side="left")].astype(np.float64).tolist()))

    # -- inflight requests: admitted and not yet resolved ---------------
    arrivals_sorted = sorted(arrival_s)
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
    # The sketch's rule (smallest boundary whose cumulative count
    # reaches the nearest rank; inf in the overflow bucket) for every
    # instant at once.  at_or_below[i, b]: completions by instant i in
    # bucket b or below (the last, overflow, bucket holds them all).
    n_buckets = _SKETCH_BOUNDS.size
    totals = np.searchsorted(completion_times, ts, side="right")
    bucket = np.searchsorted(_SKETCH_BOUNDS[:-1], np.asarray(
        [tti_by_req[req_id] for _, req_id in completions],
        dtype=np.float64), side="left")
    first_instant = np.searchsorted(totals, np.arange(bucket.size),
                                    side="right")
    at_or_below = np.bincount(
        first_instant * n_buckets + bucket,
        minlength=(ts.size + 1) * n_buckets).reshape(-1, n_buckets)
    at_or_below = at_or_below.cumsum(axis=0).cumsum(axis=1)[:-1]
    ranks = np.maximum(1.0, np.ceil(_QUANTILE_FRACTIONS * totals[:, None]))
    # First bucket reaching each rank; none does before any completion.
    first = (at_or_below[:, None, :] >= ranks[:, :, None]).argmax(axis=2)
    values = np.where(totals[:, None] > 0, _SKETCH_BOUNDS[first], 0.0)
    quantile_points = {q: list(zip(instants, column))
                       for q, column in zip(_QUANTILES, values.T.tolist())}

    # -- per-class SLO burn: recorded at ticks, replayed between --------
    classes = None if n_classes == 1 else np.asarray(
        [priorities.get(r.req_id, 0) for r in records], dtype=np.int64)
    overdue_by_instant = overdue_counts(
        ts, np.asarray(arrival_s, dtype=np.float64),
        np.asarray([np.inf if done is None else done for done in done_s],
                   dtype=np.float64),
        slo_s, classes, n_classes).tolist()
    replay = BurnSignal(cadence_s, slo_s, n_classes)
    burn_points: List[List[Tuple[float, float]]] = [
        [] for _ in range(n_classes)]
    bi = 0
    for i, t in enumerate(instants):
        while bi < len(completions) and completions[bi][0] <= t:
            done_s, req_id = completions[bi]
            replay.note_completion(done_s, tti_by_req[req_id],
                                   int(priorities.get(req_id, 0)))
            bi += 1
        burns = list(tick_burns.get(t, ()))
        if len(burns) < n_classes:
            # The replay fills the classes no tick recorded.  Skipping it
            # elsewhere is safe: its window only ever advances.
            burns += replay.class_burns(
                t, overdue_by_instant[i], error_budget)[len(burns):]
        for cls in range(n_classes):
            burn_points[cls].append((t, burns[cls]))

    # -- cumulative counters --------------------------------------------
    completed_points = list(zip(instants, totals.astype(np.float64).tolist()))
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
