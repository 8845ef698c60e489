"""Metrics and the telemetry bundle for elastic serving runs.

Span trees and critical paths come from the one
:class:`~repro.telemetry.build.TraceBuilder` the static pipeline uses.
Under autoscaling a request's scatter-gather width is the pool size
*at its admission*, so the merge cost varies per request: the builder
takes the simulator's per-``n_required`` merge memo instead of one
value, and a fixed-size elastic run degenerates to the static trees
exactly.  As in static runs, the trees are built only on first access
to ``telemetry.traces``.

Everything here is derivational (post-run, from the synthesized
:class:`~repro.serve.scheduler.ScheduleResult` and the action log), so
telemetry-on and telemetry-off elastic runs stay bit-identical -- the
same property the static pipeline pins.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ..telemetry.build import (
    MergeCost,
    RunTelemetry,
    TraceBuilder,
    latency_metrics,
    throughput_metrics,
)
from ..telemetry.critical import CriticalPath
from ..telemetry.metrics import MetricsRegistry

__all__ = [
    "build_scale_metrics",
    "build_scale_telemetry",
]


def build_scale_metrics(report: Any, result: Any,
                        paths: Sequence[CriticalPath],
                        merge: MergeCost,
                        priorities: Mapping[int, int],
                        n_burn_windows: int = 4) -> MetricsRegistry:
    """Populate a registry from one elastic run (``paths`` in record
    order).

    The serve-level series keep their static names (throughput,
    attainment, latency histograms, burn windows) so dashboards span
    both modes; the elastic control plane adds ``repro_scale_*``
    series for admission, shedding, pool motion, and warm-up cost.
    """
    registry = MetricsRegistry()
    cfg = report.config.serve
    policy = report.config.policy
    classes = policy.priorities

    offered = registry.counter(
        "repro_scale_offered_total", "Requests offered to admission")
    offered.inc(report.n_offered)
    admitted = registry.counter(
        "repro_scale_admitted_total", "Requests admitted, by class")
    for cls_name, count in report.completed_by_class:
        admitted.inc(count, **{"class": cls_name})
    shed = registry.counter(
        "repro_scale_shed_total", "Requests shed at admission, by class")
    for cls_name, count in report.shed_by_class:
        shed.inc(count, **{"class": cls_name})

    attaches = registry.counter(
        "repro_scale_attaches_total", "Autoscaler attach decisions")
    attaches.inc(report.n_attaches)
    detaches = registry.counter(
        "repro_scale_detaches_total", "Autoscaler detach decisions")
    detaches.inc(report.n_detaches)
    warmup = registry.counter(
        "repro_scale_warmup_seconds_total",
        "Corpus DMA-in seconds charged to cold attaches")
    warmup.inc(report.warmup_total_s)
    pool = registry.gauge(
        "repro_scale_pool_size", "Serving devices over the run")
    pool.set(report.pool_min, bound="min")
    pool.set(report.pool_max, bound="max")
    pool.set(report.pool_final, bound="final")
    peak_burn = registry.gauge(
        "repro_scale_peak_burn_rate",
        "Highest burn rate any control tick observed")
    peak_burn.set(report.peak_burn_rate)
    class_burn = registry.gauge(
        "repro_scale_class_burn_peak",
        "Highest per-class burn rate any control tick observed")
    for cls_name, peak in report.class_burn_peaks:
        class_burn.set(peak, **{"class": cls_name})
    if result.fault_log or result.death_times:
        fault_events = registry.counter(
            "repro_scale_fault_events_total",
            "Dynamic fault-handling actions, by kind")
        for entry in result.fault_log:
            fault_events.inc(kind=entry.kind, shard=str(entry.shard_id))
        deaths = registry.counter(
            "repro_scale_shard_deaths_total",
            "Devices declared dead and removed from the pool")
        deaths.inc(report.n_shard_failures)
        failovers = registry.counter(
            "repro_scale_failover_attaches_total",
            "Cooldown-bypassing replacement attaches after a death")
        failovers.inc(report.n_failovers)
        degraded = registry.counter(
            "repro_scale_degraded_total",
            "Requests that lost at least one shard answer to a death")
        degraded.inc(report.degraded_requests)
    goodput = registry.gauge(
        "repro_scale_goodput_ratio",
        "Offered requests completed within the SLO")
    goodput.set(report.goodput)

    batches = registry.counter(
        "repro_batches_total", "Executed batch attempts by outcome")
    for batch in result.batches:
        batches.inc(shard=str(batch.shard_id), outcome=batch.outcome)

    throughput_metrics(registry, report, paths)
    attainment = registry.gauge(
        "repro_slo_attainment_ratio",
        "Fraction of completed requests at or under the TTI SLO")
    attainment.set(report.slo_attainment)
    util = registry.gauge(
        "repro_shard_utilization_ratio",
        "Per-slot busy fraction of the simulated horizon")
    for slot_id, value in enumerate(report.shard_utilization):
        util.set(value, shard=str(slot_id))

    latency_metrics(
        registry, result, paths, merge,
        "Time-to-interactive distribution, by priority class",
        lambda path: {"class": classes[priorities[path.req_id]].name},
        cfg.slo_s, report.makespan_s, policy.autoscale.slo_target,
        policy.autoscale.error_budget, n_burn_windows)
    return registry


def build_scale_telemetry(run: Any, prefill_s: float,
                          clock_hz: float) -> RunTelemetry:
    """Derive the telemetry bundle from one elastic run.

    ``run`` is the simulator's internal ``_ElasticRun`` artifact; the
    result is the same :class:`~repro.telemetry.build.RunTelemetry`
    bundle the static pipeline produces, so every downstream renderer
    (span reports, attribution, flamegraphs, Perfetto export) works
    unchanged.  Slowdown spans carry no ``source`` label here.
    """
    builder = TraceBuilder(run.result, run.merge_by_required, prefill_s,
                           run.stage_tables)
    paths = builder.critical_paths()
    return RunTelemetry(
        critical_paths=paths,
        registry=build_scale_metrics(run.report, run.result, paths,
                                     run.merge_by_required, run.priorities),
        clock_hz=clock_hz,
        builder=builder,
    )
