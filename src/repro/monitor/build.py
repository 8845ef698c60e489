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
elastic loop from its :class:`~repro.monitor.signal.BurnSignal`).
Between ticks, and for static runs, the builder loads one
``BurnSignal`` with the run's completion record and reads it at every
remaining instant -- the one trailing-window engine (a regression
test recounts those readings by brute force from the record).
"""

from __future__ import annotations

import bisect
import math
from typing import (Any, Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

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
_QUANTILE_FRACTIONS = tuple(q / 100.0 for q in _QUANTILES)
#: The sketch's bucket boundaries, then ``inf`` for its overflow bucket.
_SKETCH_BOUNDS = QuantileSketch().boundaries + (math.inf,)
#: The finite boundaries, for bucketing samples in bulk.
_SKETCH_EDGES = np.asarray(QuantileSketch().boundaries)


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
    if not (math.isfinite(cadence_s) and cadence_s > 0):
        raise ValueError(
            f"cadence_s must be positive and finite, got {cadence_s!r}")
    instants: List[float] = []
    t = 0.0
    while t < horizon_s:
        t += cadence_s
        instants.append(t)
    if not instants:
        instants.append(cadence_s)
    if len(extra) == 0:
        return tuple(instants)
    return tuple(sorted(set(instants) | set(float(e) for e in extra)))


def _gauge(name: str, help_text: str, points: Iterable[Tuple[float, float]],
           labels: Tuple[Tuple[str, str], ...] = ()) -> Series:
    return Series(name=MONITOR_PREFIX + name, help_text=help_text,
                  kind="gauge", labels=labels, points=tuple(points))


def _counter(name: str, help_text: str,
             points: Iterable[Tuple[float, float]],
             labels: Tuple[Tuple[str, str], ...] = ()) -> Series:
    return Series(name=MONITOR_PREFIX + name, help_text=help_text,
                  kind="counter", labels=labels, points=tuple(points))


def _cumulative_points(instants: Sequence[float],
                       event_times: Sequence[float],
                       weights: Optional[Sequence[float]] = None,
                       ) -> List[Tuple[float, float]]:
    """Counter samples: total event weight with ``event_t <= t``.

    Weights add up in (time, weight) order, one left fold
    (``np.cumsum`` accumulates sequentially).
    """
    if weights is None:
        times = sorted(event_times)
        return [(t, float(bisect.bisect_right(times, t)))
                for t in instants]
    when = np.asarray(event_times, dtype=np.float64)
    weight = np.asarray(weights, dtype=np.float64)
    order = np.lexsort((weight, when))
    prefix = np.concatenate(([0.0], np.cumsum(weight[order])))
    return list(zip(instants, prefix[np.searchsorted(
        when[order], instants, side="right")].tolist()))


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
    # Only a request that waits past the SLO is ever overdue: ``t < done``
    # makes the rounded ``t - arrival`` at most ``done - arrival``.
    late = done_s - arrival_s > slo_s
    if not late.any():
        return np.zeros((n, n_classes), dtype=np.int64)
    arrival_s, done_s = arrival_s[late], done_s[late]
    if classes is not None:
        classes = classes[late]
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


def _overdue_at(instants: Sequence[float], records: Sequence[Any],
                slo_s: float, priorities: Mapping[int, int], n_classes: int
                ) -> List[List[int]]:
    """:func:`overdue_counts` of the run's requests at ``instants``, one
    row of per-class counts per instant.  Only a request that waits
    past the SLO (or never resolves) is ever overdue, so a run with
    none skips the count."""
    late = [r for r in records if r.retrieval_done_s is None
            or r.retrieval_done_s - r.arrival_s > slo_s]
    if not late:
        return [[0] * n_classes for _ in instants]
    return overdue_counts(
        np.array(instants, dtype=np.float64),
        np.array([r.arrival_s for r in late], dtype=np.float64),
        np.array([np.inf if r.retrieval_done_s is None
                  else r.retrieval_done_s for r in late], dtype=np.float64),
        slo_s, None if n_classes == 1 else np.array(
            [priorities.get(r.req_id, 0) for r in late], dtype=np.int64),
        n_classes).tolist()


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
    batches = result.batches
    arrival_s = [r.arrival_s for r in records]
    completions = sorted(
        (r.retrieval_done_s, r.req_id) for r in records
        if r.retrieval_done_s is not None)
    done_s = [done for done, _ in completions]
    tti = [tti_by_req[req_id] for _, req_id in completions]
    ticks = [a for a in actions if a.kind == "tick"]
    horizon = max([0.0, *done_s[-1:], *(t.t_s for t in ticks),
                   *(e.t_s for e in result.fault_log)])
    instants = sample_instants(horizon, cadence_s,
                               extra=[t.t_s for t in ticks])
    tick_burns: Dict[float, Tuple[float, ...]] = {
        t.t_s: tuple(t.class_burns) for t in ticks
        if getattr(t, "class_burns", ())}

    # -- pool size: step function from the action log / death log ------
    # Both logs are in time order, so the level strictly before an
    # instant is the last step before it.
    if actions:
        pool_steps = [(a.t_s, float(a.pool_size)) for a in actions
                      if a.kind in ("warm", "detach", "dead")]
    else:
        pool_steps = [(when, float(pool_initial - n)) for n, when in
                      enumerate(sorted(result.death_times.values()), 1)]
    pool_times = [when for when, _ in pool_steps]
    pool_levels = [float(pool_initial)] + [level for _, level in pool_steps]
    pool = [pool_levels[bisect.bisect_left(pool_times, t)] for t in instants]

    # -- queue depth: enqueue/dispatch/re-enqueue steps, deaths clear --
    # Sampled strictly before the instant.  A death's clear is a step of
    # minus its shard's depth (every step on it up to the death, ties in).
    ts = np.array(instants, dtype=np.float64)
    dispatch_s = [b.dispatch_s for b in batches]
    failed = [b for b in batches if b.outcome != "ok"]
    step_times = [*arrival_s, *dispatch_s,
                  *[b.dispatch_s + b.service_s for b in failed]]
    steps = [len(r.shard_done_s.keys() | r.failed_shards)
             if r.failed_shards else len(r.shard_done_s) for r in records]
    steps += [-len(b.request_ids) for b in batches]
    steps += [len(b.request_ids) for b in failed]
    for shard, when in result.death_times.items():
        depth = sum(1 for r in records if r.arrival_s <= when and (
            shard in r.shard_done_s or shard in r.failed_shards))
        for b in batches:
            if b.shard_id != shard:
                continue
            if b.dispatch_s <= when:
                depth -= len(b.request_ids)
            if b.outcome != "ok" and b.dispatch_s + b.service_s <= when:
                depth += len(b.request_ids)
        step_times.append(when)
        steps.append(-depth)
    # Each step lands on the first instant after it; whole-request
    # weights sum exactly in any order.
    queue = np.bincount(
        ts.searchsorted(step_times, side="right"), weights=steps,
        minlength=ts.size + 1).cumsum()[:-1].tolist()

    # -- inflight requests: admitted and not yet resolved ---------------
    done_sorted = np.array(done_s, dtype=np.float64)
    inflight = (np.sort(np.array(arrival_s, dtype=np.float64))
                .searchsorted(ts, side="left")
                - done_sorted.searchsorted(ts, side="left"))

    # -- rolling qps: completions in the trailing cadence window --------
    totals = done_sorted.searchsorted(ts, side="right")
    qps = (totals - done_sorted.searchsorted(ts - cadence_s, side="right")) \
        / cadence_s
    inflight_at, qps_at, completed_at = np.stack(
        (inflight, qps, totals)).tolist()

    # -- TTI quantiles from the cumulative mergeable sketch -------------
    # The sketch's rule at each instant: the smallest boundary whose
    # cumulative count reaches the nearest rank (inf in the overflow
    # bucket); 0 before any completion.  at_or_below[i][b]: completions
    # by instant i in bucket b or below (the last, overflow, bucket
    # holds them all).
    n_buckets = len(_SKETCH_BOUNDS)
    at_or_below = np.bincount(
        ts.searchsorted(done_sorted, side="left") * n_buckets
        + _SKETCH_EDGES.searchsorted(tti, side="left"),
        minlength=(ts.size + 1) * n_buckets).reshape(-1, n_buckets) \
        .cumsum(axis=0).cumsum(axis=1)[:-1].tolist()
    quantiles = [
        [_SKETCH_BOUNDS[bisect.bisect_left(
            row, max(1, math.ceil(fraction * row[-1])))] if row[-1] else 0.0
         for row in at_or_below]
        for fraction in _QUANTILE_FRACTIONS]

    # -- per-class SLO burn: recorded at ticks, read between ----------
    # At the instants no tick recorded in full, each class's window
    # holds its completions in [t - cadence, t], plus its overdue
    # requests counted as violations.
    burns_at: List[Sequence[float]] = [tick_burns.get(t, ())
                                       for t in instants]
    gaps = [i for i, burns in enumerate(burns_at) if len(burns) < n_classes]
    if gaps:
        signal = BurnSignal(cadence_s, slo_s, n_classes)
        signal.extend(done_s, tti, None if n_classes == 1 else [
            priorities.get(req_id, 0) for _, req_id in completions])
        overdue = _overdue_at([instants[i] for i in gaps], records, slo_s,
                              priorities, n_classes)
        for i, overdue_now in zip(gaps, overdue):
            burns = signal.class_burns(instants[i], overdue_now,
                                       error_budget)
            burns[:len(burns_at[i])] = burns_at[i]
            burns_at[i] = burns

    # -- cumulative counters --------------------------------------------
    by_kind: Dict[str, List[float]] = {}
    for entry in result.fault_log:
        by_kind.setdefault(entry.kind, []).append(entry.t_s)
    byte_times = list(dispatch_s)
    byte_weights = list(batch_bytes)
    for a in actions:
        if a.kind == "attach" and a.shard_id in attach_bytes:
            byte_times.append(a.t_s)
            byte_weights.append(attach_bytes[a.shard_id])
    hbm_points = _cumulative_points(instants, byte_times, byte_weights)

    series: List[Series] = [
        _gauge("pool_size", "Serving shards (pre-transition at ticks).",
               zip(instants, pool)),
        _gauge("queue_depth", "Queued requests summed over shard queues.",
               zip(instants, queue)),
        _gauge("inflight_requests",
               "Admitted requests not yet resolved.",
               zip(instants, inflight_at)),
        _gauge("qps", "Completions per second over the trailing cadence "
               "window.", zip(instants, qps_at)),
    ]
    for q, column in zip(_QUANTILES, quantiles):
        series.append(_gauge(
            "tti_quantile_seconds",
            "Streaming TTI quantile from the cumulative mergeable "
            "sketch.", zip(instants, column),
            labels=(("q", f"{q:g}"),)))
    for cls in range(n_classes):
        series.append(_gauge(
            "slo_burn",
            "Per-class trailing-window error-budget burn (controller "
            "readings at ticks).",
            [(t, burns[cls]) for t, burns in zip(instants, burns_at)],
            labels=(("class", names[cls]),)))
    series.append(_counter(
        "completed_total", "Requests resolved.",
        zip(instants, completed_at)))
    series.append(_counter(
        "retries_total", "Batch retry backoffs.",
        _cumulative_points(instants, by_kind.get("backoff", []))))
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
    for kind in sorted(by_kind):
        series.append(_counter(
            "fault_events_total",
            "Fault-handling and integrity/ECC verdict events by "
            "kind.", _cumulative_points(instants, by_kind[kind]),
            labels=(("kind", kind),)))

    return RunMonitor(
        workload=workload,
        cadence_s=cadence_s,
        horizon_s=horizon,
        instants=instants,
        series=tuple(series),
        registry_exposition=registry_exposition,
    )
