"""The metrics registry of elastic serving runs.

Elastic runs leave the same :class:`~repro.serve.record.RunRecord` as
static ones, so span trees, critical paths and the telemetry bundle
come from the one :func:`~repro.telemetry.build.build_run_telemetry`
view.  Under autoscaling a request's scatter-gather width is the pool
size *at its admission*, so the record's merge cost is one value per
``n_required``, and a fixed-size elastic run degenerates to the static
trees exactly.  This module holds only what differs: the elastic
record's registry populator, :func:`build_scale_metrics`.

Everything here is derivational (post-run, from the record's
:class:`~repro.serve.scheduler.ScheduleResult` and the report), so
telemetry-on and telemetry-off elastic runs stay bit-identical -- the
same property the static pipeline pins.
"""

from __future__ import annotations

import collections
from typing import Any, Mapping, Sequence

from ..telemetry.build import (count_batches, latency_metrics,
                               throughput_metrics)
from ..telemetry.critical import CriticalPath
from ..telemetry.metrics import MetricsRegistry

__all__ = ["build_scale_metrics"]


def build_scale_metrics(record: Any, paths: Sequence[CriticalPath],
                        stage_totals: Sequence[Mapping[str, float]]
                        ) -> MetricsRegistry:
    """Populate a registry from one elastic run's record (``paths`` and
    their ``stage_totals`` in record order).

    The serve-level series keep their static names (throughput,
    attainment, latency histograms, burn windows) so dashboards span
    both modes; the elastic control plane adds ``repro_scale_*``
    series for admission, shedding, pool motion, and warm-up cost.
    """
    registry = MetricsRegistry()
    report, result = record.report, record.result
    priorities = record.priorities
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
        for (kind, shard_id), n in collections.Counter(
                (entry.kind, entry.shard_id)
                for entry in result.fault_log).items():
            fault_events.inc(n, kind=kind, shard=str(shard_id))
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
    count_batches(batches, result.batches)

    throughput_metrics(registry, report, stage_totals)
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
        registry, record, paths, stage_totals,
        "Time-to-interactive distribution, by priority class",
        lambda path: {"class": classes[priorities[path.req_id]].name},
        policy.autoscale.slo_target)
    return registry
