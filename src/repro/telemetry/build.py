"""Build span trees, critical paths, and metrics from a run record.

The builder is strictly *derivational*: it consumes one run's
:class:`~repro.serve.record.RunRecord` -- the scheduler's causal
:class:`~repro.serve.scheduler.ScheduleResult` (executed batch
attempts, per-request scatter-gather progress, death times), the
per-dispatch stage tables the simulator captured, and the merge cost --
and reconstructs every request's span tree after the fact.  Nothing
here runs during the event loop, so telemetry-on and telemetry-off
simulations are bit-identical by construction (and the property suite
proves it).

A run pays only for what its callers read.  :func:`build_run_telemetry`,
the one telemetry view of static and elastic records alike, finds each
request's determining shard straight from the record and emits its
critical path directly from that leg's intervals (:func:`_leg_intervals`,
the one leg-partition rule), building no span or tree; the registry
reads arrival and TTI from the records and paths, one bulk histogram
update per label set.  Span trees are built only on demand: the full
set (:attr:`RunTelemetry.traces`) on first access, cached, with each
executed batch's span built once and shared by every member request's
leg, and one request's tree alone through
:meth:`RunTelemetry.trace_for`.  The two modes differ only in the
record's data: the merge cost (one value, or one per scatter-gather
width) and the registry populator (:func:`build_serve_metrics` here,
:func:`repro.scale.telemetry.build_scale_metrics` for elastic runs).

Every boundary in a tree is a float the event loop itself produced
(arrival times, dispatch times, ``dispatch + service`` completions,
death times), so sibling spans partition their parent bitwise and the
critical path conserves the reported TTI
(:mod:`repro.telemetry.critical`).

:func:`reconcile_with_trace` cross-checks the trees against the
``repro.obs`` TraceEvents the simulator emits -- spans are an *account*
of the same cycles, not a parallel accounting, and the reconciliation
proves it event by event.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from functools import cached_property
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple, Union)

from .critical import CriticalPath, Segment, stage_attribution
from .metrics import (
    DEFAULT_LATENCY_BOUNDS_S,
    Counter,
    MetricsRegistry,
    slo_burn_windows,
)
from .spans import (
    SPAN_BACKOFF,
    SPAN_BATCH,
    SPAN_FAILOVER_WAIT,
    SPAN_MERGE,
    SPAN_PREFILL,
    SPAN_QUERY,
    SPAN_QUEUE_WAIT,
    SPAN_SHARD,
    QueryTrace,
    Span,
    interval_error,
)

__all__ = [
    "StageTable",
    "MergeCost",
    "TraceBuilder",
    "RunTelemetry",
    "ReconcileReport",
    "N_BURN_WINDOWS",
    "SERVE_SLO_TARGET",
    "build_run_telemetry",
    "build_serve_metrics",
    "reconcile_with_trace",
]

#: Batch-size histogram boundaries (dynamic batches cap at powers of 2).
BATCH_SIZE_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Equal-width SLO burn windows every registry reports over the run.
N_BURN_WINDOWS = 4

#: The static registry's SLO target; its error budget is one minus it.
SERVE_SLO_TARGET = 0.99


@dataclass(frozen=True)
class StageTable:
    """One dispatch's stage decomposition, captured at dispatch time.

    ``stages`` sums (to float associativity) to the service model's
    un-multiplied batch seconds; the fault multiplier's stretch is
    attributed separately as ``slowdown`` when the tree is built.
    """

    shard_id: int
    batch_size: int
    stages: Tuple[Tuple[str, float], ...]


def _outcome(batch: Any) -> str:
    """An attempt's outcome label: a healed recompute that ran to
    completion reads ``recompute``."""
    if batch.recompute and batch.outcome == "ok":
        return "recompute"
    return str(batch.outcome)


def _batch_span(batch: Any, stage_table: Optional[StageTable],
                injector: Any = None) -> Span:
    """The span of one executed attempt, with stage children when the
    attempt ran to completion (truncated attempts stay leaves).

    With an ``injector``, a slowdown child is labelled with the fault
    kinds (``stall`` / ``recovery``) that stretched the batch at its
    dispatch instant.
    """
    end_s = batch.dispatch_s + batch.service_s
    labels = {
        "outcome": _outcome(batch),
        "batch_size": str(batch.batch_size),
        "attempt": str(batch.attempt),
    }
    if batch.corrupted:
        labels["corrupted"] = "1"
    span = Span(name=SPAN_BATCH, start_s=batch.dispatch_s, end_s=end_s,
                shard_id=batch.shard_id, labels=labels)
    full_service = batch.outcome in ("ok", "corrupted")
    if stage_table is None or not full_service:
        return span
    cursor = batch.dispatch_s
    for stage_name, seconds in stage_table.stages:
        if seconds <= 0:
            continue
        span.children.append(Span(
            name=stage_name, start_s=cursor, end_s=cursor + seconds,
            shard_id=batch.shard_id))
        cursor += seconds
    # A fold of the stage seconds can miss the exact service time by an
    # ulp; only a genuinely fault-stretched batch (multiplier != 1)
    # carries a slowdown span, so residue never masquerades as a fault.
    slowdown = end_s - cursor
    if slowdown > 0 and float(batch.multiplier) != 1.0:
        labels = {"multiplier": repr(float(batch.multiplier))}
        if injector is not None:
            sources = injector.multiplier_sources(batch.shard_id,
                                                  batch.dispatch_s)
            labels["source"] = ",".join(sources) or "unknown"
        span.children.append(Span(
            name="slowdown", start_s=cursor, end_s=end_s,
            shard_id=batch.shard_id, labels=labels))
    return span


def _leg_end(record: Any, shard_id: int,
             death_times: Mapping[int, float]) -> float:
    """Where one shard leg ends: the shard's death if it failed the
    request, else its completion."""
    if shard_id in record.failed_shards:
        return death_times[shard_id]
    return record.shard_done_s[shard_id]


def _leg_shards(record: Any) -> List[int]:
    return sorted(set(record.shard_done_s) | set(record.failed_shards))


def _determining_shard(record: Any,
                       death_times: Mapping[int, float]) -> Optional[int]:
    """The first shard (in id order) whose leg ends at the resolution;
    ``None`` when the request resolved with no shard legs."""
    done = record.retrieval_done_s
    shard_ids = _leg_shards(record)
    for shard_id in shard_ids:
        if _leg_end(record, shard_id, death_times) == done:
            return shard_id
    if shard_ids:  # pragma: no cover - every resolution is a shard event
        raise ValueError(
            f"request {record.req_id}: no shard leg ends at the "
            f"recorded resolution time {done!r}")
    return None


def _leg_intervals(record: Any, shard_id: int, leg: Sequence[int],
                   batches: Sequence[Any],
                   death_times: Mapping[int, float]
                   ) -> Iterator[Tuple[str, float, float, Optional[int]]]:
    """One shard leg's ``(name, start, end, batch index)`` intervals,
    partitioning [arrival, leg end] bitwise.

    ``leg`` holds the leg's batch indices (into ``batches``) in dispatch
    order; gaps before an attempt are ``queue_wait`` (or ``backoff``
    after a failed attempt) and carry no batch, and a leg the shard's
    death cut short ends in a ``failover_wait``.
    """
    cursor = record.arrival_s
    previous_failed = False
    for index in leg:
        batch = batches[index]
        start = batch.dispatch_s
        if start > cursor:
            yield (SPAN_BACKOFF if previous_failed else SPAN_QUEUE_WAIT,
                   cursor, start, None)
        end = start + batch.service_s
        if end < start:
            raise interval_error(SPAN_BATCH, start, end)
        yield SPAN_BATCH, start, end, index
        cursor = end
        # Only an attempt whose batch outcome is "ok" succeeded.
        previous_failed = batch.outcome != "ok"
    if shard_id in record.failed_shards:
        leg_end = death_times[shard_id]
        if leg_end > cursor:
            yield SPAN_FAILOVER_WAIT, cursor, leg_end, None


def _shard_chain(record: Any, shard_id: int, leg: Sequence[int],
                 batches: Sequence[Any], spans: Mapping[int, Span],
                 death_times: Mapping[int, float]) -> Span:
    """One shard leg as a span whose children are its intervals, each
    batch attempt the shared span ``spans[index]``."""
    children = [
        Span(name=name, start_s=start, end_s=end, shard_id=shard_id)
        if index is None else spans[index]
        for name, start, end, index in _leg_intervals(
            record, shard_id, leg, batches, death_times)]
    failed = shard_id in record.failed_shards
    return Span(name=SPAN_SHARD, start_s=record.arrival_s,
                end_s=_leg_end(record, shard_id, death_times),
                shard_id=shard_id,
                labels={"failed": "1"} if failed else {},
                children=children)


#: One named interval of a request's life: ``(name, start_s, end_s)``.
Interval = Tuple[str, float, float]

#: A run's merge cost: one value (static runs), or one per scatter-gather
#: width ``n_required`` (elastic runs, whose width is the pool size at
#: admission).
MergeCost = Union[float, Mapping[int, float]]


def merge_lookup(merge: MergeCost) -> Callable[[int], float]:
    """``n_required`` -> that width's cost, for either form."""
    if isinstance(merge, Mapping):
        return merge.__getitem__
    return lambda _n_required: merge


class TraceBuilder:
    """Builds span trees and critical paths from one run's record.

    ``result`` is the :class:`~repro.serve.scheduler.ScheduleResult`;
    ``stage_tables`` the dispatch-ordered capture (one
    :class:`StageTable` per executed batch; without it batch spans stay
    leaves); ``injector`` (static fault runs) labels slowdown spans
    with their cause.
    """

    def __init__(self, result: Any, merge: MergeCost, prefill_s: float,
                 stage_tables: Optional[Sequence[StageTable]] = None,
                 injector: Any = None):
        if stage_tables is not None:
            if len(stage_tables) != len(result.batches):
                raise ValueError(
                    f"{len(stage_tables)} stage tables for "
                    f"{len(result.batches)} executed batches")
            for batch, table in zip(result.batches, stage_tables):
                if table.shard_id != batch.shard_id \
                        or table.batch_size != batch.batch_size:
                    raise ValueError(
                        f"stage table ({table.shard_id}, "
                        f"{table.batch_size}) does not match batch "
                        f"({batch.shard_id}, {batch.batch_size})")
        self.result = result
        self.merge_for = merge_lookup(merge)
        self.prefill_s = prefill_s
        self.stage_tables = stage_tables
        self.injector = injector

    def _legs(self, members: Callable[[Any], Iterable[int]]
              ) -> Dict[int, Dict[int, List[int]]]:
        """``req_id`` -> shard id -> the leg's batch indices in dispatch
        order (a stable sort by ``dispatch_s``), for the member requests
        ``members(batch)`` keeps of each batch."""
        batches = self.result.batches
        legs: Dict[int, Dict[int, List[int]]] = {}
        for index in sorted(range(len(batches)),
                            key=lambda i: batches[i].dispatch_s):
            batch = batches[index]
            for req_id in members(batch):
                legs.setdefault(req_id, {}).setdefault(
                    batch.shard_id, []).append(index)
        return legs

    def _trees(self, records: Sequence[Any],
               legs: Mapping[int, Mapping[int, List[int]]]
               ) -> List[QueryTrace]:
        """Full trees of ``records``, each executed batch's span (with
        its stage children) built once and shared by its member legs."""
        batches = self.result.batches
        tables = self.stage_tables
        spans: Dict[int, Span] = {}
        for by_shard in legs.values():
            for leg in by_shard.values():
                for index in leg:
                    if index not in spans:
                        spans[index] = _batch_span(
                            batches[index],
                            None if tables is None else tables[index],
                            self.injector)
        death_times = self.result.death_times
        traces = []
        for record in records:
            by_shard = legs.get(record.req_id, {})
            children = [
                _shard_chain(record, shard_id, by_shard.get(shard_id, ()),
                             batches, spans, death_times)
                for shard_id in _leg_shards(record)]
            merge_s, merge, prefill, query = self._host_intervals(record)
            children.append(Span(*merge))
            children.append(Span(*prefill))
            root = Span(name=SPAN_QUERY, start_s=query[1], end_s=query[2],
                        labels={"n_required": str(record.n_required)},
                        children=children)
            traces.append(QueryTrace(
                req_id=record.req_id,
                arrival_s=record.arrival_s,
                retrieval_done_s=record.retrieval_done_s,
                merge_s=merge_s,
                prefill_s=self.prefill_s,
                root=root,
                determining_shard=_determining_shard(record, death_times),
                n_required=record.n_required,
                failed_shards=tuple(sorted(record.failed_shards)),
                corrupted_shards=tuple(sorted(record.corrupted_shards)),
            ))
        return traces

    def _host_intervals(self, record: Any
                        ) -> Tuple[float, Interval, Interval, Interval]:
        """``(merge_s, merge, prefill, query)`` of one request: the host
        tail after its resolution and the whole query, each interval a
        ``(name, start, end)`` checked to not end before it starts."""
        done = record.retrieval_done_s
        merge_s = self.merge_for(record.n_required)
        merge_end = done + merge_s
        prefill_end = merge_end + self.prefill_s
        if merge_end < done:
            raise interval_error(SPAN_MERGE, done, merge_end)
        if prefill_end < merge_end:
            raise interval_error(SPAN_PREFILL, merge_end, prefill_end)
        if prefill_end < record.arrival_s:
            raise interval_error(SPAN_QUERY, record.arrival_s, prefill_end)
        return (merge_s, (SPAN_MERGE, done, merge_end),
                (SPAN_PREFILL, merge_end, prefill_end),
                (SPAN_QUERY, record.arrival_s, prefill_end))

    def traces(self) -> List[QueryTrace]:
        """Every request's full tree, in record (req-id) order."""
        return self._trees(self.result.records,
                           self._legs(lambda batch: batch.request_ids))

    def trace(self, index: int) -> QueryTrace:
        """The full tree of ``result.records[index]`` alone."""
        record = self.result.records[index]
        return self._trees([record], self._legs(
            lambda batch: (record.req_id,)
            if record.req_id in batch.request_ids else ()))[0]

    def critical_paths(self) -> Tuple[CriticalPath, ...]:
        """Every request's critical path, in record order.

        Built straight from the determining leg's intervals (the same
        :func:`_leg_intervals` the trees wrap in spans), then the merge
        and prefill; no span or tree is built.  Each path equals
        :func:`~repro.telemetry.critical.critical_path` of the request's
        full tree, and ``tti_s`` keeps the simulator's association.
        """
        records = self.result.records
        batches = self.result.batches
        death_times = self.result.death_times
        determining = {
            record.req_id: _determining_shard(record, death_times)
            for record in records}
        legs = self._legs(
            lambda batch: [req_id for req_id in batch.request_ids
                           if determining.get(req_id) == batch.shard_id])
        prefill_s = self.prefill_s
        paths = []
        for record in records:
            arrival, done = record.arrival_s, record.retrieval_done_s
            shard_id = determining[record.req_id]
            segments: List[Segment] = []
            if shard_id is not None:
                leg_end = _leg_end(record, shard_id, death_times)
                if leg_end < arrival:
                    raise interval_error(SPAN_SHARD, arrival, leg_end)
                for name, start, end, index in _leg_intervals(
                        record, shard_id,
                        legs.get(record.req_id, {}).get(shard_id, ()),
                        batches, death_times):
                    segments.append(Segment(
                        name, start, end, shard_id,
                        "" if index is None else _outcome(batches[index])))
            merge_s, merge, prefill, _query = self._host_intervals(record)
            segments.append(Segment(*merge))
            segments.append(Segment(*prefill))
            paths.append(CriticalPath(
                req_id=record.req_id,
                segments=tuple(segments),
                tti_s=((done - arrival) + merge_s) + prefill_s,
                determining_shard=-1 if shard_id is None else shard_id))
        return tuple(paths)


# ----------------------------------------------------------------------
# Metrics pipeline
# ----------------------------------------------------------------------
def throughput_metrics(registry: MetricsRegistry, report: Any,
                       paths: Sequence[CriticalPath]) -> None:
    """Register the critical-path stage totals, throughput and makespan
    static and elastic registries share."""
    critical = registry.counter(
        "repro_critical_path_seconds_total",
        "Critical-path seconds attributed per stage")
    for stage, seconds in sorted(stage_attribution(paths).items()):
        critical.inc(seconds, stage=stage)
    throughput = registry.gauge(
        "repro_throughput_qps", "Sustained queries per second")
    throughput.set(report.throughput_qps)
    makespan = registry.gauge(
        "repro_makespan_seconds", "Simulated makespan")
    makespan.set(report.makespan_s)


def count_batches(counter: Counter, batches: Sequence[Any]) -> None:
    """Count executed attempts per (shard, outcome): one ``inc`` of the
    pair's count, the same float as that many ``inc()`` calls."""
    for (shard_id, outcome), n in collections.Counter(
            (batch.shard_id, batch.outcome) for batch in batches).items():
        counter.inc(n, shard=str(shard_id), outcome=outcome)


def latency_metrics(registry: MetricsRegistry, record: Any,
                    paths: Sequence[CriticalPath], tti_help: str,
                    tti_labels: Callable[[CriticalPath], Dict[str, str]],
                    slo_target: float) -> None:
    """Register the latency histograms and SLO burn windows static and
    elastic registries share.

    Arrivals and resolutions come from the records, TTI and queue wait
    from the critical paths (in record order); the retrieval sample is
    bitwise ``QueryTrace.retrieval_latency_s + merge_s``.  The burn
    windows spend ``record.error_budget``; ``slo_target`` only labels
    their help text.
    """
    result = record.result
    tti_hist = registry.histogram(
        "repro_tti_seconds", tti_help, DEFAULT_LATENCY_BOUNDS_S)
    retrieval_hist = registry.histogram(
        "repro_retrieval_seconds",
        "Arrival-to-merged-top-k latency distribution",
        DEFAULT_LATENCY_BOUNDS_S)
    queue_hist = registry.histogram(
        "repro_queue_wait_seconds",
        "Per-request queue-wait on the critical path",
        DEFAULT_LATENCY_BOUNDS_S)
    size_hist = registry.histogram(
        "repro_batch_size", "Executed batch sizes", BATCH_SIZE_BOUNDS)
    merge_for = merge_lookup(record.merge)
    tti_groups: Dict[Tuple[Tuple[str, str], ...], List[float]] = {}
    for path in paths:
        tti_groups.setdefault(tuple(sorted(tti_labels(path).items())),
                              []).append(path.tti_s)
    for labels, samples in tti_groups.items():
        tti_hist.observe_many(samples, **dict(labels))
    retrieval_hist.observe_many(
        (r.retrieval_done_s - r.arrival_s) + merge_for(r.n_required)
        for r in result.records)
    queue_hist.observe_many(
        path.stage_seconds(SPAN_QUEUE_WAIT) for path in paths)
    sizes: Dict[int, List[int]] = {}
    for batch in result.batches:
        sizes.setdefault(batch.shard_id, []).append(batch.batch_size)
    for shard_id, shard_sizes in sizes.items():
        size_hist.observe_many(shard_sizes, shard=str(shard_id))

    burn = registry.gauge(
        "repro_slo_burn_rate",
        f"SLO error-budget burn rate per window (target {slo_target:g})")
    windows = slo_burn_windows(
        [r.arrival_s for r in result.records], [p.tti_s for p in paths],
        record.config.slo_s, record.report.makespan_s, N_BURN_WINDOWS)
    for window in windows:
        burn.set(window.burn_rate(record.error_budget),
                 window=str(window.index))


def build_serve_metrics(record: Any,
                        paths: Sequence[CriticalPath]) -> MetricsRegistry:
    """Populate a registry from one static serving run's record.

    The same derivational hooks as the span trees: everything comes
    from the schedule record (arrivals, resolutions), the critical
    paths (TTI, queue wait) and the report, so the registry is
    bit-deterministic and golden-pinnable.  ``paths`` are in record
    order.
    """
    report, result = record.report, record.result
    registry = MetricsRegistry()
    cfg = record.config

    requests = registry.counter(
        "repro_requests_total", "Completed requests")
    requests.inc(report.n_completed)
    degraded = registry.counter(
        "repro_requests_degraded_total",
        "Requests answered with less than full corpus coverage")
    degraded.inc(report.degraded_requests)

    batches = registry.counter(
        "repro_batches_total", "Executed batch attempts by outcome")
    count_batches(batches, result.batches)
    # Fault-log kind -> the counter its entries count.
    by_kind = {
        "backoff": registry.counter(
            "repro_retries_total", "Backoff-gated retry rounds"),
        "dead": registry.counter(
            "repro_shard_deaths_total", "Shards declared dead"),
        "corrupted": registry.counter(
            "repro_integrity_detected_total",
            "Corrupted batches caught by ABFT verification"),
        "recompute": registry.counter(
            "repro_integrity_recomputes_total",
            "Recompute attempts dispatched to heal detections"),
        "sdc": registry.counter(
            "repro_sdc_escapes_total",
            "Corrupted batches shipped undetected"),
    }
    # Registered only when protection is on: a registered counter
    # exposes HELP/TYPE headers even at zero, and ECC-off runs must
    # stay byte-identical to the pre-ECC registry.
    if cfg.ecc.enabled:
        by_kind["ecc_corrected"] = registry.counter(
            "repro_ecc_corrected_total",
            "Codewords the ECC decoder corrected in place")
        by_kind["ecc_detected"] = registry.counter(
            "repro_ecc_detected_total",
            "Codewords the ECC decoder flagged detected-uncorrectable")
        by_kind["ecc_miscorrect"] = registry.counter(
            "repro_ecc_miscorrections_total",
            "Codewords the ECC decoder silently miscorrected")
    for (kind, shard_id), n in collections.Counter(
            (entry.kind, entry.shard_id)
            for entry in result.fault_log).items():
        counter = by_kind.get(kind)
        if counter is not None:
            counter.inc(n, shard=str(shard_id))

    throughput_metrics(registry, report, paths)
    attainment = registry.gauge(
        "repro_slo_attainment_ratio",
        "Fraction of requests at or under the TTI SLO")
    attainment.set(report.slo_attainment)
    utilization = registry.gauge(
        "repro_shard_utilization_ratio",
        "Per-shard busy fraction of the simulated horizon")
    for shard_id, value in enumerate(report.shard_utilization):
        utilization.set(value, shard=str(shard_id))
    coverage = registry.gauge(
        "repro_coverage_mean_ratio",
        "Mean fraction of corpus chunks scanned per request")
    coverage.set(report.mean_coverage)
    intact = registry.gauge(
        "repro_intact_coverage_mean_ratio",
        "Mean fraction of shard answers neither lost nor corrupted")
    intact.set(report.mean_intact_coverage)

    latency_metrics(registry, record, paths,
                    "Time-to-interactive distribution", lambda path: {},
                    SERVE_SLO_TARGET)
    return registry


# ----------------------------------------------------------------------
# Reconciliation against the obs TraceEvents
# ----------------------------------------------------------------------
@dataclass
class ReconcileReport:
    """Span-vs-TraceEvent cross-check results."""

    n_batch_spans: int = 0
    n_batch_matched: int = 0
    n_merge_spans: int = 0
    n_merge_events: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.mismatches)} MISMATCH(ES)"
        return (f"reconciliation: {self.n_batch_matched}/"
                f"{self.n_batch_spans} batch spans matched trace events, "
                f"{self.n_merge_spans} merge spans vs "
                f"{self.n_merge_events} merge events -> {status}")


def reconcile_with_trace(traces: Sequence[QueryTrace], collector: Any,
                         clock_hz: float,
                         rel_tol: float = 1e-9) -> ReconcileReport:
    """Verify spans are an account of the emitted TraceEvents.

    Every ``batch`` span must coincide (start and duration, within
    ``rel_tol`` relative cycles) with a ``serve_batch`` event on the
    same shard, and the per-request merge spans must agree in number
    with the ``serve_merge`` events.  ``collector`` is a
    :class:`~repro.obs.collector.TraceCollector` (its ring must have
    retained the run -- use a capacity above the event count) or any
    iterable of :class:`~repro.obs.events.TraceEvent`.
    """
    report = ReconcileReport()
    batch_events: Dict[int, List[Tuple[float, float]]] = {}
    n_merge_events = 0
    events = collector.events if hasattr(collector, "events") \
        else collector
    for event in events:
        if event.name == "serve_batch":
            batch_events.setdefault(event.core_id, []).append(
                (event.start_cycle, event.total_cycles))
        elif event.name == "serve_merge":
            n_merge_events += 1
    report.n_merge_events = n_merge_events

    def close(a: float, b: float, scale: float) -> bool:
        return abs(a - b) <= rel_tol * max(1.0, abs(scale))

    for trace in traces:
        for shard_id, leg in sorted(trace.shard_spans.items()):
            for span in leg.children:
                if span.name != SPAN_BATCH:
                    continue
                report.n_batch_spans += 1
                start = span.start_s * clock_hz
                cycles = span.duration_s * clock_hz
                candidates = batch_events.get(shard_id, ())
                if any(close(start, s, s) and close(cycles, c, c)
                       for s, c in candidates):
                    report.n_batch_matched += 1
                else:
                    report.mismatches.append(
                        f"req {trace.req_id} shard {shard_id}: batch span "
                        f"at cycle {start:.0f} ({cycles:.0f} cycles) has "
                        f"no serve_batch event")
        report.n_merge_spans += sum(
            1 for child in trace.root.children
            if child.name == SPAN_MERGE)
    if n_merge_events and report.n_merge_spans != n_merge_events:
        report.mismatches.append(
            f"{report.n_merge_spans} merge spans vs "
            f"{n_merge_events} serve_merge events")
    return report


# ----------------------------------------------------------------------
# The run-level bundle
# ----------------------------------------------------------------------
@dataclass
class RunTelemetry:
    """Everything one telemetry-enabled serving run derived.

    ``critical_paths`` and ``registry`` come with the run; the span
    trees (:attr:`traces`) are built from ``builder`` on first access
    and cached.
    """

    critical_paths: Tuple[CriticalPath, ...]
    registry: MetricsRegistry
    clock_hz: float
    builder: TraceBuilder = field(repr=False, compare=False)

    @cached_property
    def traces(self) -> Tuple[QueryTrace, ...]:
        return tuple(self.builder.traces())

    @cached_property
    def _index(self) -> Dict[int, int]:
        """``req_id`` -> position in record order."""
        return {path.req_id: i for i, path in enumerate(self.critical_paths)}

    def _position(self, req_id: int, what: str) -> int:
        index = self._index.get(req_id)
        if index is None:
            raise KeyError(f"no {what} for request {req_id}")
        return index

    def path_for(self, req_id: int) -> CriticalPath:
        return self.critical_paths[self._position(req_id, "critical path")]

    def trace_for(self, req_id: int) -> QueryTrace:
        """One request's tree; builds only that tree unless
        :attr:`traces` is already built."""
        index = self._position(req_id, "query trace")
        if "traces" in self.__dict__:
            return self.traces[index]
        return self.builder.trace(index)


def build_run_telemetry(record: Any) -> RunTelemetry:
    """Derive the telemetry bundle from one run record, static or
    elastic (:class:`~repro.serve.record.RunRecord`).

    The record's own registry populator fills the registry; its
    injector (static fault runs) labels slowdown spans with their cause.
    """
    builder = TraceBuilder(record.result, record.merge, record.prefill_s,
                           record.stage_tables, record.injector)
    paths = builder.critical_paths()
    return RunTelemetry(
        critical_paths=paths,
        registry=record.metrics(record, paths),
        clock_hz=record.params.clock_hz,
        builder=builder,
    )
