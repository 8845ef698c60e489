"""One run record for static and elastic runs, and the views that read it.

Both simulators end every run by building a :class:`RunRecord`: the
report plus everything a post-run view needs -- the causal
:class:`~repro.serve.scheduler.ScheduleResult` (built on first access),
merge costs, prefill, the per-batch stage tables and bytes, the burn
inputs, and the elastic action log.  Every observed output is a pure
function of the record:

* :func:`emit_run_trace` -- the ``repro.obs`` trace events: one lane
  per shard device, host merges, and the SCALE, FAULT and INTEGRITY
  lanes;
* :func:`repro.telemetry.build.build_run_telemetry` -- critical paths,
  the metrics registry, and span trees on first access;
* :func:`observe_run` -- that telemetry bundle plus the monitor series.

Static and elastic records differ only in data, never in code path:
the merge width is ``n_shards`` for every static request and each
elastic request's admission-time pool size (a zero-width request
merges nothing); pool-wide events land on the host lane, ``n_shards``
for static runs and the pool capacity for elastic ones; only static
fault runs carry the injector that labels slowdown spans with their
cause.

A record holds no reference cycle, so each public simulator action
runs under :func:`collector_paused`.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence, \
    Tuple

from .. import monitor as _monitor
from ..core.params import APUParams
from ..faults.plan import FaultPlan
from ..integrity.config import IntegrityConfig, get_cost_model
from ..obs.events import LANE_FAULT, LANE_INTEGRITY, LANE_SCALE, LANE_VCU, \
    TraceEvent
from ..telemetry.build import MergeCost, StageTable, merge_lookup
from .scheduler import ScheduleResult

__all__ = ["RunRecord", "collector_paused", "emit_run_trace", "observe_run"]


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause Python's cyclic garbage collector for one simulator action.

    A finished run holds data, not callbacks (the event loop drops its
    hooks when it ends), so reference counting frees all it leaves; the
    collector's passes during the action would only walk the growing
    run state and free nothing.  On exit, by return or by exception,
    the collector is back as the caller had it, so nested pauses and a
    caller's own ``gc.disable()`` hold.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass
class RunRecord:
    """Everything one finished run leaves for its post-run views.

    ``config`` is the serve deployment (an elastic run's
    ``ScaleConfig.serve``).  ``materialize`` returns the
    :class:`~repro.serve.scheduler.ScheduleResult` and the resident
    embedding bytes each executed batch streamed at its dispatch (one
    entry per batch); it runs once, on first access to :attr:`result`
    or :attr:`batch_bytes`, so a run nobody observes never builds its
    ``RequestRecord`` objects.
    """

    report: Any
    config: Any
    params: APUParams
    materialize: Callable[[], Tuple[ScheduleResult, Sequence[int]]] = \
        field(repr=False)
    #: Merge seconds: one value, or one per scatter-gather width.
    merge: MergeCost
    #: Merge cycles of the trace events, in the same form as ``merge``.
    merge_cycles: MergeCost
    prefill_s: float
    #: The registry populator of this mode; takes ``(record, paths)``.
    metrics: Callable[..., Any] = field(repr=False)
    #: SLO error budget of the burn windows.
    error_budget: float
    #: Lane id of pool-wide events (host merges, controller, scrubs).
    host_lane: int
    #: Default monitor sampling cadence.
    cadence_s: float
    #: One :class:`~repro.telemetry.build.StageTable` per executed
    #: batch, in dispatch order (captured runs only).
    stage_tables: Optional[Sequence[StageTable]] = None
    #: ``req_id`` -> reported TTI (elastic runs, and captured static
    #: runs): bitwise the value the elastic burn signal saw in-loop.
    tti_by_req: Optional[Mapping[int, float]] = None
    class_names: Tuple[str, ...] = ("all",)
    #: ``req_id`` -> priority-class index (empty: class 0 throughout).
    priorities: Mapping[int, int] = field(default_factory=dict)
    #: The elastic loop's ScaleAction log.
    actions: Tuple[Any, ...] = ()
    #: Slot id -> corpus bytes a warm-up streams in (elastic runs).
    attach_bytes: Mapping[int, int] = field(default_factory=dict)
    #: Labels slowdown spans with their cause (static fault runs).
    injector: Any = None

    @cached_property
    def _materialized(self) -> Tuple[ScheduleResult, Sequence[int]]:
        return self.materialize()

    @property
    def result(self) -> ScheduleResult:
        return self._materialized[0]

    @property
    def batch_bytes(self) -> Sequence[int]:
        return self._materialized[1]


def emit_run_trace(record: RunRecord, trace: Any) -> None:
    """The run's ``repro.obs`` trace events.

    Per-shard queue waits and batches (``core_id`` = shard id), one
    host merge per request, the SCALE decision lane (elastic runs), and
    the FAULT and INTEGRITY lanes (fault runs).
    """
    clock = record.params.clock_hz
    result = record.result
    host = record.host_lane
    _emit_batches(trace, result, record.batch_bytes, clock)
    merge_cycles = merge_lookup(record.merge_cycles)
    for request in result.records:
        if request.retrieval_done_s is None:  # pragma: no cover
            continue
        cycles = merge_cycles(request.n_required)
        if cycles <= 0:
            continue
        trace.emit(TraceEvent(
            name="serve_merge", lane=LANE_VCU,
            start_cycle=request.retrieval_done_s * clock,
            cycles=cycles,
            section="serve/merge",
            core_id=host))
    for action in record.actions:
        if action.kind == "warm":
            continue
        if action.kind in ("tick", "attach", "shed"):
            # Pool-wide decisions land on the host lane.
            section = "scale/admission" if action.kind == "shed" \
                else "scale/controller"
            core_id = host
        else:  # detach / drained / dead: one device's lane
            section = f"scale/shard{action.shard_id}"
            core_id = action.shard_id
        name = "scale_failover" if action.reason == "failover" \
            else f"scale_{action.kind}"
        trace.emit(TraceEvent(
            name=name, lane=LANE_SCALE,
            start_cycle=action.t_s * clock, cycles=0.0,
            section=section, core_id=core_id))
        if action.kind == "attach":
            trace.emit(TraceEvent(
                name="scale_warmup", lane=LANE_SCALE,
                start_cycle=action.t_s * clock,
                cycles=action.duration_s * clock,
                section=f"scale/shard{action.shard_id}",
                bytes_moved=record.attach_bytes[action.shard_id],
                core_id=action.shard_id))
    cfg = record.config
    if cfg.faults:
        _emit_faults(trace, result, clock, cfg.faults)
        _emit_integrity(trace, result, clock, cfg.faults, cfg.integrity,
                        record.params, host)


def observe_run(record: RunRecord, *, workload: str,
                cadence_s: Optional[float] = None) -> Tuple[Any, Any]:
    """``(telemetry, monitor)`` of one record.

    Both builders are looked up when called, so a wrapper installed on
    ``repro.telemetry.build`` or the ``repro.monitor`` package sees the
    call.  ``cadence_s`` defaults to the record's (the autoscaler's
    control interval for elastic runs, so samples land on ticks).
    """
    from ..telemetry.build import build_run_telemetry

    telemetry = build_run_telemetry(record)
    monitor = _monitor.build_run_monitor(
        workload=workload,
        result=record.result,
        slo_s=record.config.slo_s,
        error_budget=record.error_budget,
        class_names=record.class_names,
        priorities=record.priorities,
        tti_by_req=record.tti_by_req,
        batch_bytes=record.batch_bytes,
        pool_initial=record.config.n_shards,
        registry_exposition=telemetry.registry.expose(),
        cadence_s=record.cadence_s if cadence_s is None else cadence_s,
        actions=record.actions,
        attach_bytes=record.attach_bytes,
    )
    return telemetry, monitor


def _emit_batches(trace: Any, result: ScheduleResult,
                  batch_bytes: Sequence[int], clock: float) -> None:
    """Per-shard queue-wait and batch events (``core_id`` = shard id);
    ``batch_bytes`` holds each batch's bytes as of its dispatch."""
    for batch, nbytes in zip(result.batches, batch_bytes):
        wait = batch.dispatch_s - batch.head_enqueue_s
        if wait > 0:
            trace.emit(TraceEvent(
                name="serve_queue_wait", lane=LANE_VCU,
                start_cycle=batch.head_enqueue_s * clock,
                cycles=wait * clock,
                section=f"serve/shard{batch.shard_id}",
                core_id=batch.shard_id))
        trace.emit(TraceEvent(
            name="serve_batch", lane=LANE_VCU,
            start_cycle=batch.dispatch_s * clock,
            cycles=batch.service_s * clock,
            count=1,
            section=f"serve/shard{batch.shard_id}",
            bytes_moved=nbytes,
            core_id=batch.shard_id))


#: Corruption kinds belong to the INTEGRITY lane; every other fault-log
#: kind stays on FAULT.
_INTEGRITY_NAMES = {"corrupted": "integrity_detect",
                    "sdc": "integrity_sdc",
                    "recompute": "integrity_recompute",
                    "ecc_corrected": "integrity_ecc_correct",
                    "ecc_detected": "integrity_ecc_detect",
                    "ecc_miscorrect": "integrity_ecc_miscorrect"}


def _emit_faults(trace: Any, result: ScheduleResult, clock: float,
                 plan: FaultPlan) -> None:
    """FAULT-lane events: the scripted plan plus the stack's reactions
    (``core_id`` is the shard/slot id, so the lanes line up with the
    serve lanes)."""
    horizon = result.horizon_s

    def clamped(start_s: float, end_s: float) -> Optional[float]:
        """Duration of ``[start, end)`` visible inside the horizon."""
        if start_s >= horizon:
            return None
        return min(end_s, horizon) - start_s

    for stall in plan.stalls:
        span = clamped(stall.start_s, stall.end_s)
        if span is None:
            continue
        trace.emit(TraceEvent(
            name="fault_stall", lane=LANE_FAULT,
            start_cycle=stall.start_s * clock, cycles=span * clock,
            section=f"fault/shard{stall.shard_id}",
            core_id=stall.shard_id))
    for outage in plan.outages:
        span = clamped(outage.start_s, outage.end_s)
        if span is None:
            continue
        trace.emit(TraceEvent(
            name="fault_outage", lane=LANE_FAULT,
            start_cycle=outage.start_s * clock, cycles=span * clock,
            section=f"fault/shard{outage.shard_id}",
            core_id=outage.shard_id))
        if not outage.permanent and outage.recovery_s > 0:
            span = clamped(outage.end_s,
                           outage.end_s + outage.recovery_s)
            if span is not None:
                trace.emit(TraceEvent(
                    name="fault_recovery", lane=LANE_FAULT,
                    start_cycle=outage.end_s * clock,
                    cycles=span * clock,
                    section=f"fault/shard{outage.shard_id}",
                    core_id=outage.shard_id))
    for entry in result.fault_log:
        name = _INTEGRITY_NAMES.get(entry.kind)
        if name is None:
            name = (f"fault_{entry.kind}" if entry.kind != "dead"
                    else "fault_failover")
            lane = LANE_FAULT
            section = f"fault/shard{entry.shard_id}"
        else:
            lane = LANE_INTEGRITY
            section = f"integrity/shard{entry.shard_id}"
        trace.emit(TraceEvent(
            name=name,
            lane=lane,
            start_cycle=entry.t_s * clock,
            cycles=entry.duration_s * clock,
            section=section,
            core_id=entry.shard_id))


def _emit_integrity(trace: Any, result: ScheduleResult, clock: float,
                    plan: FaultPlan, integrity: IntegrityConfig,
                    params: APUParams, host: int) -> None:
    """INTEGRITY-lane events for the script itself: flips, plus scrub
    passes on the host lane."""
    horizon = result.horizon_s
    for flip in plan.bit_flips:
        if flip.t_s >= horizon:
            continue
        trace.emit(TraceEvent(
            name="integrity_stuck" if flip.persistent
            else "integrity_flip",
            lane=LANE_INTEGRITY,
            start_cycle=flip.t_s * clock,
            cycles=0.0,
            section=f"integrity/shard{flip.shard_id}",
            core_id=flip.shard_id))
    if integrity.scrubbing:
        scrub_s = get_cost_model(params).scrub_pass_seconds(
            integrity.scrub_vrs)
        tick = integrity.scrub_interval_s
        t = tick
        while t < horizon:
            trace.emit(TraceEvent(
                name="integrity_scrub",
                lane=LANE_INTEGRITY,
                start_cycle=t * clock,
                cycles=scrub_s * clock,
                section="integrity/scrub",
                core_id=host))
            t += tick
