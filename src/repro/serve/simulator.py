"""The sharded serving simulator: corpus -> shards -> scheduler -> report.

:class:`ServingSimulator` runs a request stream against ``N`` simulated
APU shard devices, through the one serving event loop
(:class:`~repro.serve.scheduler.PoolLoop`) pinned to the fleet: every
device serves from the start, nothing scales it, and every arrival is
admitted.  Batch service times come from one cost model,
:class:`SliceCostModel`, keyed by the chunk count of the slice a device
scans and shared with the elastic pool: the
:class:`repro.rag.batching.BatchedAPURetrieval` model, *anchored* so
that a batch of one costs exactly the single-device Table 8 latency
(``APURetriever.latency_breakdown(...).total``) and each extra query in
a batch adds the model's amortized per-query increment.  Completed
requests pay the host top-k merge plus the generator prefill, giving a
**time-to-interactive** distribution; with one shard and batches of one
the simulated TTI is cycle-identical to
``RAGPipeline.time_to_interactive``.

A :class:`~repro.faults.FaultPlan` in the config turns the run into a
scripted chaos experiment: the loop gets a
:class:`~repro.faults.FaultInjector` plus the config's
:class:`~repro.serve.scheduler.RetryPolicy`, and when a shard is
declared dead the loop re-anchors the survivors under the
**failover policy**:

* ``"reroute"`` -- survivors take over every dead slice, pooled and
  split by the one takeover rule, :func:`counts_for`, that the elastic
  pool also places by (later batches are priced on the enlarged
  slices), so requests arriving after the death regain full corpus
  coverage;
* ``"degraded"`` -- the dead slice is dropped and later requests merge
  partial top-k from the live shards only.

Either way, requests in flight at the death lose the dead shard's
slice; the report's **coverage** numbers are the exact fraction of
corpus chunks scanned per request, which for round-robin placement is
also the expected recall@k against the unsharded oracle (exactly --
see :mod:`repro.serve.degraded`), computed from the loop's per-request
columns.  An empty fault plan takes none of these paths and reproduces
the fault-free simulation bit-for-bit.

Bit-flip faults in the plan add the silent-data-corruption dimension.
With :attr:`ServeConfig.integrity` enabled the scheduler runs
*protected*: corrupted batches are detected at completion and recomputed
through the retry machinery (so answers stay bit-identical to the
fault-free baseline, at a latency/throughput cost charged through the
calibrated :class:`~repro.integrity.IntegrityCostModel` -- per-query
checksum verification plus the periodic scrub duty cycle).  Disabled,
the same plan ships corrupted answers: the report counts the escapes
(``n_sdc_escapes``) and the **intact coverage** -- the fraction of each
request's shard answers that were neither lost nor corrupted.

Every run ends in a :class:`~repro.serve.record.RunRecord`, the input
of every post-run view (trace events, telemetry, the monitor); its
``RequestRecord`` objects are built only when a view reads them.  When a
:mod:`repro.obs` collector is active, every executed batch and host
merge is emitted as a shard-tagged :class:`~repro.obs.events.TraceEvent`
(``core_id`` = shard id), so the Chrome-trace export shows one Perfetto
lane per device; faults and the
stack's reactions (stalls, outages, timeouts, backoff, failover) land
on the dedicated ``FAULT`` lane, and the corruption story (scripted
flips, detections, recomputes, scrub passes, SDC escapes) on the
``INTEGRITY`` lane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, \
    Set, Tuple, Union

import numpy as np

from ..core.params import APUParams, DEFAULT_PARAMS
from ..ecc.config import ECCConfig, ECCCostModel, make_codec
from ..ecc.model import ECCModel
from ..faults.injector import FaultInjector
from ..faults.plan import BitFlipFault, FaultPlan, OutageFault, StallFault
from ..integrity.config import IntegrityConfig, get_cost_model
from ..monitor.build import DEFAULT_CADENCE_S
from ..obs import collector as _trace_collector
from ..rag.batching import BatchedAPURetrieval
from ..rag.corpus import CorpusSpec, PAPER_CORPORA
from ..rag.generation import GenerationModel
from ..rag.retrieval import APURetriever, RetrievalBreakdown
from ..simcore.engine import DEFAULT_ENGINE, validate_engine
from ..simcore.vectorized import VectorizedScheduler
from ..telemetry.build import SERVE_SLO_TARGET, StageTable, \
    build_serve_metrics
from .metrics import LatencyStats, slo_attainment, utilization
from .record import RunRecord, emit_run_trace, observe_run
from .scheduler import OUTCOME_OK, BatchPolicy, PoolLoop, RetryPolicy, \
    ScheduleResult
from .sharding import merge_cycles, merge_seconds, shard_chunk_counts
from .workload import Request, _validate_stream, poisson_arrival_times, \
    request_columns, validate_arrival_times

__all__ = [
    "FAILOVER_POLICIES",
    "ServeConfig",
    "SliceCostModel",
    "counts_for",
    "ServeReport",
    "ServingSimulator",
    "golden_serve_config",
    "golden_fault_config",
    "golden_integrity_config",
    "golden_ecc_config",
]

#: A request stream: ``Request`` objects, or sorted arrival times with
#: positional ids.
Arrivals = Union[Sequence[Request], np.ndarray]

#: Supported responses to a shard death.
FAILOVER_POLICIES = ("reroute", "degraded")


def _require_int(name: str, value: Any, minimum: int) -> None:
    """``value`` is an integer (not a ``bool``) of at least ``minimum``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) \
            or value < minimum:
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class ServeConfig:
    """One serving deployment + workload configuration."""

    spec: CorpusSpec
    n_shards: int = 4
    batch: BatchPolicy = field(default_factory=BatchPolicy)
    k: int = 5
    qps: float = 100.0
    n_requests: int = 256
    seed: int = 0
    #: Time-to-interactive SLO for attainment accounting.
    slo_s: float = 1.0
    #: Scripted faults; the empty default plan is bit-identical to a
    #: fault-free run.
    faults: FaultPlan = field(default_factory=FaultPlan)
    #: Per-batch timeout + bounded-retry policy (consulted only when
    #: the fault plan is non-empty).
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: What to do when a shard dies: ``"reroute"`` or ``"degraded"``.
    failover: str = "reroute"
    #: ABFT protection knobs.  Disabled (the default) keeps every code
    #: path bit-identical to the pre-integrity simulator; enabled, the
    #: scheduler detects and recomputes corrupted batches and the
    #: service model charges the verification + scrub overhead.
    integrity: IntegrityConfig = field(default_factory=IntegrityConfig)
    #: Code-based memory protection.  Disabled (the default) keeps every
    #: code path bit-identical to the pre-ECC simulator; enabled,
    #: injected upsets land in codewords (corrected / detected /
    #: miscorrected by the configured codec) and the service model
    #: charges the check-bit storage inflation plus the per-query
    #: encode/decode cycles.
    ecc: ECCConfig = field(default_factory=ECCConfig)
    #: Backend of a plain fault-free ``run()``: ``"scalar"`` (the
    #: reference event loop) or ``"vectorized"`` (the NumPy core, which
    #: reports from columns proven equal to the loop's by
    #: ``tests/simcore``).  Fault runs, telemetry, monitors and traces
    #: use the event loop on either engine.
    engine: str = DEFAULT_ENGINE

    def __post_init__(self):
        _require_int("n_shards", self.n_shards, 1)
        _validate_stream(self.qps, self.n_requests)
        _require_int("seed", self.seed, 0)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k!r}")
        if not (math.isfinite(self.slo_s) and self.slo_s > 0):
            raise ValueError(
                f"slo_s must be positive and finite, got {self.slo_s!r}")
        if self.n_shards > self.spec.n_chunks:
            raise ValueError(
                f"{self.n_shards} shards for {self.spec.n_chunks} chunks "
                f"would leave shards empty")
        if not isinstance(self.faults, FaultPlan):
            raise ValueError(
                f"faults must be a FaultPlan, "
                f"got {type(self.faults).__name__}")
        self.faults.validate_for(self.n_shards)
        if not isinstance(self.retry, RetryPolicy):
            raise ValueError(
                f"retry must be a RetryPolicy, "
                f"got {type(self.retry).__name__}")
        if self.failover not in FAILOVER_POLICIES:
            raise ValueError(
                f"unknown failover policy {self.failover!r}; "
                f"choose from {FAILOVER_POLICIES}")
        if not isinstance(self.integrity, IntegrityConfig):
            raise ValueError(
                f"integrity must be an IntegrityConfig, "
                f"got {type(self.integrity).__name__}")
        if not isinstance(self.ecc, ECCConfig):
            raise ValueError(
                f"ecc must be an ECCConfig, "
                f"got {type(self.ecc).__name__}")
        validate_engine(self.engine)


class SliceCostModel:
    """Anchored Table 8 costs of a corpus slice, keyed by its chunk count.

    ``service_seconds(c, 1)`` is exactly the single-device latency of a
    ``c``-chunk slice of the corpus; each additional query adds the
    ``BatchedAPURetrieval`` amortized per-query increment (query
    staging + MAC chain + top-k + return, the embedding stream shared).
    Anchors are memoized per chunk count and batch times per ``(chunk
    count, batch size)``, so a placement -- a static fleet's or the
    elastic :class:`~repro.scale.pool.ElasticAPUDevicePool` -- prices a
    batch with a dict probe however often its slices change.

    An enabled ``integrity`` config adds the protection overhead on top
    of the anchored times: each query in a batch pays the calibrated
    column-checksum verification for the slice's MAC blocks plus the
    top-k result check, and an active scrub schedule stretches service
    by its duty factor (the device spends that fraction of its time
    re-checksumming resident vectors instead of serving).

    An enabled ``ecc`` config charges the code-based protection tax:
    every protected byte inflates by the codec's ``n/k`` check-bit
    overhead (applied to the slice footprint at anchor time, so the HBM
    embedding stream and the per-batch DMA both pay it), and each query
    pays the memory-interface encode of its staged vector plus the
    decode of its top-k readout.  The in-SRAM scan itself reads raw
    bits; only traffic crossing the memory interface is coded.
    """

    def __init__(self, spec: CorpusSpec, k: int = 5,
                 params: APUParams = DEFAULT_PARAMS,
                 integrity: Optional[IntegrityConfig] = None,
                 ecc: Optional[ECCConfig] = None):
        self.spec = spec
        self.k = k
        self.params = params
        self.integrity = integrity if integrity is not None \
            else IntegrityConfig()
        self.ecc = ecc if ecc is not None else ECCConfig()
        self._costs = get_cost_model(params) if self.integrity.enabled \
            else None
        self._ecc_costs = (ECCCostModel(make_codec(self.ecc),
                                        params.clock_hz)
                          if self.ecc.enabled else None)
        self._retriever = APURetriever(optimized=True, params=params)
        self._batched = BatchedAPURetrieval(params)
        #: chunk count -> (single, increment, breakdown) anchor.
        self._anchors: Dict[
            int, Tuple[float, float, RetrievalBreakdown]] = {}
        #: (chunk count, batch size) -> batch service seconds.
        self._services: Dict[Tuple[int, int], float] = {}
        #: (shard, chunk count, batch size) -> stage table.
        self._tables: Dict[Tuple[int, int, int], StageTable] = {}

    def slice_spec(self, chunk_count: int) -> CorpusSpec:
        """The corpus slice a device holding ``chunk_count`` chunks
        scans."""
        if chunk_count < 1:
            raise ValueError(
                f"chunk_count must be >= 1, got {chunk_count!r}; a "
                f"device serves a non-empty corpus slice")
        return CorpusSpec(
            label=f"{self.spec.label}/slice{chunk_count}",
            corpus_bytes=self.spec.corpus_bytes * chunk_count
            / max(1, self.spec.n_chunks),
            n_chunks=chunk_count,
            dim=self.spec.dim,
            bytes_per_value=self.spec.bytes_per_value,
        )

    def embedding_bytes(self, chunk_count: int) -> int:
        """Resident embedding bytes of a ``chunk_count`` slice."""
        return int(chunk_count * self.spec.dim * self.spec.bytes_per_value)

    def _anchor(self, chunk_count: int
                ) -> Tuple[float, float, RetrievalBreakdown]:
        """(single-query latency, per-query increment, stage breakdown).

        With ECC enabled the anchor runs against a check-bit-inflated
        spec: every resident embedding byte and every corpus byte grows
        by the codec's ``n/k``, so the warm-up stream, per-batch DMA,
        and effective capacity all carry the storage tax.
        """
        anchor = self._anchors.get(chunk_count)
        if anchor is None:
            slice_spec = self.slice_spec(chunk_count)
            if self._ecc_costs is not None:
                slice_spec = replace(
                    slice_spec, label=f"{slice_spec.label}+ecc",
                    corpus_bytes=slice_spec.corpus_bytes
                    * self._ecc_costs.storage_factor)
            # Calibration replays the closed-form breakdowns; those are
            # not part of the simulated serving timeline, so keep their
            # HBM/DMA events out of any active trace collector.
            previous = _trace_collector.set_collector(None)
            try:
                breakdown = self._retriever.latency_breakdown(
                    slice_spec, self.k)
                pair = [self._batched.batch_latency(slice_spec, b, self.k)
                        .batch_seconds for b in (1, 2)]
            finally:
                _trace_collector.set_collector(previous)
            anchor = self._anchors[chunk_count] = (
                breakdown.total, pair[1] - pair[0], breakdown)
        return anchor

    def service_seconds(self, chunk_count: int, batch_size: int) -> float:
        """One batch's service time on a ``chunk_count`` slice."""
        key = (chunk_count, batch_size)
        cost = self._services.get(key)
        if cost is None:
            single, increment, _ = self._anchor(chunk_count)
            cost = single + (batch_size - 1) * increment
            if self._ecc_costs is not None:
                cost += self.ecc_seconds(batch_size)
            if self._costs is not None:
                cost += batch_size * self.verify_seconds(chunk_count)
                cost *= self.scrub_duty_factor
            self._services[key] = cost
        return cost

    def ecc_seconds(self, batch_size: int) -> float:
        """Per-batch ECC codec time at the memory interface.

        Each query pays the encode of its staged embedding (written
        into protected VRs) plus the decode/correction pass over its
        4-byte-per-entry top-k readout.  The resident corpus stream is
        *not* re-decoded per scan -- the in-SRAM compute reads raw
        bits; its protection cost is the storage inflation charged at
        anchor time.
        """
        if self._ecc_costs is None:
            return 0.0
        query_bytes = float(self.spec.dim * self.spec.bytes_per_value)
        topk_bytes = 4.0 * self.k
        per_query = (self._ecc_costs.encode_seconds(query_bytes)
                     + self._ecc_costs.decode_seconds(topk_bytes))
        return batch_size * per_query

    def verify_seconds(self, chunk_count: int) -> float:
        """Per-query ABFT verification cost over a ``chunk_count`` slice.

        One column-checksum check per resident MAC block (a block spans
        ``vr_length`` chunks on each of the cores) plus the top-k result
        comparison, all from the calibrated cost model.
        """
        if self._costs is None:
            return 0.0
        per_core = self.params.vr_length * self.params.num_cores
        blocks = -(-max(1, chunk_count) // per_core)
        topk_check = self._costs.crc_cycles(4 * self.k) / self.params.clock_hz
        return blocks * self._costs.checksum_seconds() + topk_check

    @property
    def scrub_duty_factor(self) -> float:
        """Service-time stretch from the background scrub schedule."""
        if self._costs is None or not self.integrity.scrubbing:
            return 1.0
        scrub = self._costs.scrub_pass_seconds(self.integrity.scrub_vrs)
        return 1.0 + scrub / self.integrity.scrub_interval_s

    def stage_seconds(self, chunk_count: int, batch_size: int
                      ) -> Tuple[Tuple[str, float], ...]:
        """Decompose one batch's service time into Table 8 stages.

        The anchored single-query breakdown sets the stage *fractions*
        and the anchored batch time sets the total: ``dma`` (embedding +
        query staging), ``mac``, and ``topk`` scale by their share of
        the single-query latency, ``return`` takes the remainder of the
        un-protected base, then the protection taxes land explicitly as
        ``ecc`` (per-query codec time at the memory interface),
        ``checksum`` (per-query ABFT verification) and ``scrub`` (duty-
        cycle stretch).
        """
        single, increment, breakdown = self._anchor(chunk_count)
        base = single + (batch_size - 1) * increment
        scale = base / breakdown.total
        dma = (breakdown.load_embedding + breakdown.load_query) * scale
        mac = breakdown.calc_distance * scale
        topk = breakdown.topk_aggregation * scale
        ret = base - ((dma + mac) + topk)
        stages = [("dma", dma), ("mac", mac), ("topk", topk),
                  ("return", ret)]
        if self._ecc_costs is not None:
            stages.append(("ecc", self.ecc_seconds(batch_size)))
        if self._costs is not None:
            checksum = batch_size * self.verify_seconds(chunk_count)
            stages.append(("checksum", checksum))
            folded = 0.0
            for _, seconds in stages:
                folded += seconds
            scrub = self.service_seconds(chunk_count, batch_size) - folded
            if scrub > 0:
                stages.append(("scrub", scrub))
        return tuple(stages)

    def stage_table(self, shard_id: int, chunk_count: int,
                    batch_size: int) -> StageTable:
        """:meth:`stage_seconds` as one dispatch's telemetry table on
        ``shard_id``, memoized."""
        key = (shard_id, chunk_count, batch_size)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = StageTable(
                shard_id=shard_id, batch_size=batch_size,
                stages=self.stage_seconds(chunk_count, batch_size))
        return table


def counts_for(base_counts: Sequence[int],
               attached: Iterable[int]) -> Dict[int, int]:
    """Chunk count per attached slot of a placement.

    The one takeover rule.  Attached slots keep their ``base_counts``
    slice; the chunks of every detached slot are pooled and
    redistributed over the attached ones in slot order, earlier slots
    taking the remainder.  A static fleet's reroute failover and the
    elastic pool both place through it, so one death moves a slice the
    same way in either, and so do several (4 chunks on 4 slots, slot 0
    then slot 2 gone: ``{1: 2, 3: 2}``).
    """
    slots = sorted(set(attached))
    if not slots:
        raise ValueError(
            "topology needs at least one attached slot; the corpus "
            "cannot be served with every device detached")
    if slots[0] < 0 or slots[-1] >= len(base_counts):
        raise ValueError(
            f"attached slots {slots!r} outside a placement of "
            f"{len(base_counts)} slots; slot ids must be in "
            f"[0, {len(base_counts) - 1}]")
    counts = {slot: base_counts[slot] for slot in slots}
    orphaned = sum(base_counts) - sum(counts.values())
    if orphaned > 0:
        extra = shard_chunk_counts(orphaned, len(slots))
        for slot, gained in zip(slots, extra):
            counts[slot] += gained
    return counts


@dataclass(frozen=True)
class ServeReport:
    """Everything one simulation run produced."""

    config: ServeConfig
    n_completed: int
    #: Last request's full completion (retrieval + merge + prefill).
    makespan_s: float
    throughput_qps: float
    #: Arrival -> merged top-k (queueing + batches + host merge).
    retrieval: LatencyStats
    #: Arrival -> first generated token.
    tti: LatencyStats
    slo_attainment: float
    shard_utilization: Tuple[float, ...]
    n_batches: int
    mean_batch_size: float
    #: Batch attempts aborted at the per-batch timeout.
    n_timeouts: int = 0
    #: Backoff-gated retry rounds.
    n_retries: int = 0
    #: Shards declared dead during the run.
    n_shard_failures: int = 0
    #: Requests answered with less than full corpus coverage.
    degraded_requests: int = 0
    #: Mean/min fraction of corpus chunks scanned per request; under
    #: round-robin placement this is the exact expected recall@k vs the
    #: unsharded oracle.
    mean_coverage: float = 1.0
    min_coverage: float = 1.0
    #: Corrupted batch attempts caught by ABFT verification.
    n_corruptions_detected: int = 0
    #: Corrupted batches that shipped undetected (unprotected runs).
    n_sdc_escapes: int = 0
    #: Recompute attempts dispatched to heal detections.
    n_recomputes: int = 0
    #: Codewords the ECC decoder corrected in place (clean batches).
    n_ecc_corrected: int = 0
    #: Codewords the ECC decoder flagged detected-uncorrectable.
    n_ecc_detected: int = 0
    #: Codewords the ECC decoder silently miscorrected (beyond-
    #: capability upsets that landed within distance t of a wrong
    #: codeword).
    n_ecc_miscorrections: int = 0
    #: Mean fraction of each request's shard answers that were neither
    #: lost to failover nor silently corrupted (1.0 = every answer
    #: trustworthy).
    mean_intact_coverage: float = 1.0

    def format(self) -> str:
        """Human-readable report block for the CLI."""
        cfg = self.config
        lines = [
            f"serving {cfg.spec.label} over {cfg.n_shards} shard(s), "
            f"{cfg.qps:g} qps offered, {cfg.n_requests} requests "
            f"(seed {cfg.seed})",
            f"  batching: max {cfg.batch.max_batch}/batch, "
            f"max wait {cfg.batch.max_wait_s * 1e3:g} ms "
            f"-> {self.n_batches} batches, "
            f"mean size {self.mean_batch_size:.2f}",
            f"  throughput: {self.throughput_qps:8.1f} qps sustained "
            f"({self.n_completed} completed in {self.makespan_s:.3f} s)",
        ]
        lines += latency_lines(self)
        lines.append(
            f"  SLO {cfg.slo_s * 1e3:g} ms: "
            f"{self.slo_attainment * 100:.1f}% attained")
        lines.append(
            "  utilization: "
            + "  ".join(f"shard{i} {u * 100:5.1f}%"
                        for i, u in enumerate(self.shard_utilization)))
        if cfg.faults:
            lines.append(
                f"  faults: {cfg.faults.n_faults} scripted "
                f"({cfg.failover} failover) -> {self.n_timeouts} timeouts, "
                f"{self.n_retries} retries, "
                f"{self.n_shard_failures} shard death(s)")
            lines.append(
                f"  coverage: mean {self.mean_coverage * 100:.2f}%  "
                f"min {self.min_coverage * 100:.2f}%  "
                f"(expected recall; {self.degraded_requests} degraded "
                f"request(s))")
        if cfg.faults.bit_flips or cfg.integrity.enabled:
            mode = "protected" if cfg.integrity.enabled else "UNPROTECTED"
            lines.append(
                f"  integrity ({mode}): "
                f"{len(cfg.faults.bit_flips)} scripted flip(s) -> "
                f"{self.n_corruptions_detected} detected, "
                f"{self.n_recomputes} recomputed, "
                f"{self.n_sdc_escapes} escaped; "
                f"intact coverage {self.mean_intact_coverage * 100:.2f}%")
        if cfg.ecc.enabled:
            lines.append(ecc_line(cfg.ecc, self))
        return "\n".join(lines)


def latency_lines(report: Any) -> List[str]:
    """The retrieval and TTI percentile lines of a serve or scale
    report."""
    lines = []
    for label, stats in (("retrieval", report.retrieval),
                         ("tti", report.tti)):
        ms = stats.as_ms()
        lines.append(
            f"  {label:<9s} ms: "
            + "  ".join(f"{name} {ms[name]:8.2f}"
                        for name in ("p50", "p95", "p99", "max")))
    return lines


def ecc_line(ecc: ECCConfig, report: Any) -> str:
    """The ECC verdict line of a serve or scale report."""
    tier = ecc.tier
    if tier == "bch":
        tier = f"bch t={ecc.t}"
    return (f"  ecc ({tier}, {ecc.data_bits}b codewords): "
            f"{report.n_ecc_corrected} corrected, "
            f"{report.n_ecc_detected} detected-uncorrectable, "
            f"{report.n_ecc_miscorrections} miscorrected")


class ServingSimulator:
    """Drive a request stream through the sharded serving stack."""

    def __init__(self, config: ServeConfig,
                 params: APUParams = DEFAULT_PARAMS,
                 generator: Optional[GenerationModel] = None):
        self.config = config
        self.params = params
        self.generator = generator or GenerationModel()
        self.cost_model = SliceCostModel(
            config.spec, config.k, params, integrity=config.integrity,
            ecc=config.ecc)
        #: Round-robin placement: shard id -> chunks it scans.
        self.placement = tuple(shard_chunk_counts(config.spec.n_chunks,
                                                  config.n_shards))
        # Calibrate at construction, not on a run's first dispatch.
        for count in set(self.placement):
            self.cost_model.service_seconds(count, 1)
        self.merge_s = merge_seconds(config.n_shards, config.k, params)
        self.prefill_s = self.generator.prefill_seconds()
        self.injector = (FaultInjector(config.faults, config.n_shards)
                         if config.faults else None)
        self._ecc = ECCModel(config.ecc) if config.ecc.enabled else None
        placement = self.placement
        if config.failover == "reroute":
            self._place: Callable[[List[int]], Dict[int, int]] = \
                partial(counts_for, placement)
        else:  # "degraded": the dead slice is dropped, not pooled
            self._place = lambda serving: {j: placement[j] for j in serving}
        #: The columnar backend of plain fault-free runs.
        self.scheduler = VectorizedScheduler(
            config.n_shards, config.batch,
            lambda shard, size: self.cost_model.service_seconds(
                placement[shard], size)) \
            if config.engine == "vectorized" else None

    # ------------------------------------------------------------------
    def run(self, requests: Optional[Arrivals] = None) -> ServeReport:
        """Simulate the configured (or a supplied) request stream.

        ``requests`` is a sequence of :class:`~repro.serve.workload.Request`
        or a sorted array of arrival times (ids positional); ``None``
        draws the config's Poisson stream.
        """
        return self._simulate(requests).report

    def run_with_telemetry(self, requests: Optional[Arrivals] = None):
        """Simulate and derive request-level causal telemetry.

        Returns ``(report, telemetry)`` where the report is **bit-
        identical** to :meth:`run` on the same stream: nothing extra
        runs inside the event loop.  Each batch's stage decomposition
        is priced after the run on the slice its shard held at
        dispatch (so a takeover mid-run is honored); critical paths and
        the metrics registry are derived from the run's
        :class:`~repro.serve.record.RunRecord`, and the span trees on
        first access to ``telemetry.traces``.
        """
        from ..telemetry.build import build_run_telemetry

        record = self._simulate(requests, capture=True)
        return record.report, build_run_telemetry(record)

    def run_with_monitor(self, requests: Optional[Arrivals] = None,
                         *, cadence_s: Optional[float] = None,
                         workload: str = "serve"):
        """Simulate, derive telemetry, and sample the monitor series.

        Returns ``(report, telemetry, monitor)`` where report and
        telemetry are **bit-identical** to :meth:`run_with_telemetry`
        on the same stream: the monitor is derived post-hoc from the
        same run record, with no extra instrumentation inside the
        event loop (the differential suite pins monitoring-off
        byte-identity on both engines).
        """
        record = self._simulate(requests, capture=True)
        telemetry, monitor = observe_run(record, workload=workload,
                                         cadence_s=cadence_s)
        return record.report, telemetry, monitor

    def _loop(self, arrival_s: np.ndarray,
              req_ids: Optional[np.ndarray]) -> PoolLoop:
        """The pool loop, pinned to the fleet, run over one stream."""
        cfg = self.config
        loop = PoolLoop(cfg.n_shards, cfg.batch, model=self.cost_model,
                        place=self._place, injector=self.injector,
                        retry=cfg.retry, protected=cfg.integrity.enabled,
                        ecc=self._ecc)
        loop.run(arrival_s, req_ids)
        return loop

    def _simulate(self, requests: Optional[Arrivals] = None,
                  capture: bool = False) -> RunRecord:
        """One full simulation: its :class:`~repro.serve.record.RunRecord`.

        ``capture`` adds the telemetry capture to the record: one stage
        table per executed batch, and each request's TTI.  A fault-free
        vectorized run without it reports straight from the
        :class:`~repro.simcore.arrays.ArraySchedule` columns, and its
        record runs the pinned pool loop on the same stream only when a
        view reads the ``ScheduleResult`` or batch bytes (an active
        trace collector).  Every other run is that loop, and reports
        from the shard machine's columns; its ``ScheduleResult`` and
        ``RequestRecord`` objects are built only when a view reads them.
        """
        times, ids = self._arrival_columns(requests)
        if self.injector is None and not capture \
                and self.scheduler is not None:
            schedule = self.scheduler.run_arrays(times, ids)
            by_id = np.argsort(schedule.req_ids, kind="stable")
            report = self._report(
                schedule.latency_s()[by_id], schedule.horizon_s,
                schedule.busy_seconds.tolist(),
                int(schedule.batch_size.size),
                int(schedule.batch_size.sum()), {})
            return self._record(
                report, lambda: self._loop(times, ids).materialize())
        loop = self._loop(times, ids)
        machine = loop.machine
        machine.check_complete()
        arrival_col, done_col = machine.arrival_s, machine.done_s
        req_ids = sorted(arrival_col)
        n = len(req_ids)
        arrival = np.fromiter(map(arrival_col.__getitem__, req_ids),
                              float, n)
        done = np.fromiter(map(done_col.__getitem__, req_ids), float, n)
        batches = machine.batches
        report = self._report(
            done - arrival, max(done_col.values()),
            [state.busy_s for state in machine.shards], len(batches),
            sum(len(batch.request_ids) for batch in batches),
            self._fault_fields(loop, req_ids)
            if self.injector is not None else {})
        tti = None
        if capture:
            # Bitwise the report's TTI arithmetic: retrieval latency
            # plus merge, plus prefill.
            merge_s, prefill_s = self.merge_s, self.prefill_s
            tti = {req_id: (done_col[req_id] - arrival_col[req_id]
                            + merge_s) + prefill_s
                   for req_id in req_ids}
        return self._record(report, loop.materialize,
                            loop.stage_tables() if capture else None, tti)

    def _fault_fields(self, loop: PoolLoop,
                      req_ids: List[int]) -> Dict[str, Any]:
        """Fault counters and per-request coverage, from the machine's
        columns.

        A request loses the slice each shard that died before answering
        it held at the death.  A death nobody took over (degraded
        failover, or the last shard's) also loses its slice for every
        later arrival.  Overlapping losses clamp at zero rather than
        double-count.
        """
        machine = loop.machine
        deaths = machine.death_times
        lost = {shard: loop.slots[shard].chunk_count for shard in deaths}
        if self.config.failover == "degraded":
            permanent = lost
        elif len(deaths) == len(loop.slots):
            last = next(reversed(deaths))
            permanent = {last: lost[last]}
        else:
            permanent = {}
        failed: Dict[int, Set[int]] = {}
        for req_id, shard in machine.failed:
            failed.setdefault(req_id, set()).add(shard)
        corrupted: Dict[int, Set[int]] = {}
        for batch in machine.batches:
            if batch.corrupted and batch.outcome == OUTCOME_OK:
                for req_id in batch.request_ids:
                    corrupted.setdefault(req_id, set()).add(batch.shard_id)
        total = self.config.spec.n_chunks
        arrival, n_required = machine.arrival_s, machine.n_required
        coverages = []
        intact = []
        for req_id in req_ids:
            gone = failed.get(req_id, ())
            missing = sum(lost[shard] for shard in gone)
            missing += sum(chunks for shard, chunks in permanent.items()
                           if deaths[shard] <= arrival[req_id]
                           and shard not in gone)
            coverages.append(max(0.0, 1.0 - min(missing, total) / total))
            required = n_required[req_id]
            if required > 0:
                intact.append(max(0, required - len(gone)
                                  - len(corrupted.get(req_id, ())))
                              / required)
        return dict(
            n_timeouts=machine.n_timeouts,
            n_retries=machine.n_retries,
            n_shard_failures=len(deaths),
            degraded_requests=sum(1 for c in coverages if c < 1.0),
            mean_coverage=sum(coverages) / len(coverages),
            min_coverage=min(coverages),
            n_corruptions_detected=machine.n_corruptions_detected,
            n_sdc_escapes=machine.n_sdc,
            n_recomputes=machine.n_recomputes,
            n_ecc_corrected=machine.n_ecc_corrected,
            n_ecc_detected=machine.n_ecc_detected,
            n_ecc_miscorrections=machine.n_ecc_miscorrections,
            mean_intact_coverage=1.0 if not intact
            else sum(intact) / len(intact),
        )

    def _record(self, report: ServeReport,
                materialize: Callable[[], Tuple[ScheduleResult, List[int]]],
                stage_tables: Optional[List[Any]] = None,
                tti_by_req: Optional[Dict[int, float]] = None) -> RunRecord:
        """The run's record; emits its trace into an active collector."""
        cfg = self.config
        record = RunRecord(
            report=report, config=cfg, params=self.params,
            materialize=materialize,
            merge=self.merge_s,
            merge_cycles=merge_cycles(cfg.n_shards, cfg.k, self.params),
            prefill_s=self.prefill_s,
            metrics=build_serve_metrics,
            error_budget=1.0 - SERVE_SLO_TARGET,
            host_lane=cfg.n_shards,
            cadence_s=DEFAULT_CADENCE_S,
            stage_tables=stage_tables,
            tti_by_req=tti_by_req,
            injector=self.injector)
        trace = _trace_collector.ACTIVE
        if trace is not None and trace.enabled:
            emit_run_trace(record, trace)
        return record

    def _arrival_columns(self, requests: Optional[Arrivals]
                         ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(arrival times, request ids or None for positional)``,
        validated."""
        if requests is None:
            cfg = self.config
            return poisson_arrival_times(cfg.qps, cfg.n_requests,
                                         cfg.seed), None
        if isinstance(requests, np.ndarray):
            return validate_arrival_times(requests), None
        return request_columns(requests)

    def _report(self, latency_s: np.ndarray, horizon_s: float,
                busy_seconds: Sequence[float], n_batches: int,
                n_queries: int, faults: Dict[str, Any]) -> ServeReport:
        """The report of one run, from its columns.

        ``latency_s`` is arrival -> scatter-gather resolution per
        request in ``req_id`` order, ``n_queries`` the sub-queries the
        ``n_batches`` executed batches carried; fault runs pass their
        fault counters and coverage in ``faults``.  Every run entry
        point ends here.
        """
        cfg = self.config
        retrieval_lat = latency_s + self.merge_s
        tti_lat = retrieval_lat + self.prefill_s
        makespan = horizon_s + self.merge_s + self.prefill_s
        n_completed = int(latency_s.size)
        return ServeReport(
            config=cfg,
            n_completed=n_completed,
            makespan_s=makespan,
            throughput_qps=n_completed / makespan,
            retrieval=LatencyStats.from_samples(retrieval_lat),
            tti=LatencyStats.from_samples(tti_lat),
            slo_attainment=slo_attainment(tti_lat, cfg.slo_s),
            shard_utilization=tuple(utilization(busy_seconds, horizon_s)),
            n_batches=n_batches,
            mean_batch_size=n_queries / n_batches if n_batches else 0.0,
            **faults,
        )


def golden_serve_config() -> ServeConfig:
    """The canonical serving workload pinned by the golden trace.

    Small enough to simulate in milliseconds, busy enough (offered load
    near one shard-batch per max-wait window) to exercise queueing,
    under-full timers, and full batches.
    """
    return ServeConfig(
        spec=PAPER_CORPORA["10GB"],
        n_shards=4,
        batch=BatchPolicy(max_batch=8, max_wait_s=2e-3),
        k=5,
        qps=400.0,
        n_requests=64,
        seed=0,
        slo_s=1.0,
    )


def golden_fault_config() -> ServeConfig:
    """The canonical chaos workload pinned by the fault golden trace.

    The golden serving workload plus one of each fault model: an early
    stall on shard 1 severe enough that the per-batch timeout trips
    the circuit breaker (timeouts -> backoff retries -> declared
    dead), a crash-and-restart with slow-start on shard 2 (interrupted
    batch, then recovery), and a permanent failure of shard 3 mid-run;
    both deaths reroute onto the survivors.  Exercises every
    FAULT-lane event kind in one sub-second run.
    """
    return ServeConfig(
        spec=PAPER_CORPORA["10GB"],
        n_shards=4,
        batch=BatchPolicy(max_batch=8, max_wait_s=2e-3),
        k=5,
        qps=400.0,
        n_requests=64,
        seed=0,
        slo_s=1.0,
        faults=FaultPlan(
            stalls=(StallFault(shard_id=1, start_s=0.010, duration_s=0.040,
                               slowdown=6.0),),
            outages=(
                OutageFault(shard_id=2, start_s=0.040, duration_s=0.030,
                            recovery_s=0.020, recovery_slowdown=2.0),
                OutageFault(shard_id=3, start_s=0.080),
            ),
        ),
        retry=RetryPolicy(timeout_s=0.008, max_retries=2,
                          backoff_base_s=1e-3, backoff_cap_s=8e-3),
        failover="reroute",
    )


def golden_integrity_config() -> ServeConfig:
    """The canonical SDC workload pinned by the integrity golden trace.

    The golden serving workload with protection enabled and one of each
    bit-flip model: a transient VR upset on shard 1 (one detection, one
    recompute), a DMA burst error on shard 2 (same dance on the DMA
    channel), and a stuck-at cell on shard 3 -- whose every batch
    verifies corrupt, so the recompute budget burns out and the shard
    fails over to the survivors.  A 50 ms scrub cadence keeps periodic
    ``integrity_scrub`` events on the lane.  Exercises every
    INTEGRITY-lane event kind in one sub-second run.
    """
    return ServeConfig(
        spec=PAPER_CORPORA["10GB"],
        n_shards=4,
        batch=BatchPolicy(max_batch=8, max_wait_s=2e-3),
        k=5,
        qps=400.0,
        n_requests=64,
        seed=0,
        slo_s=1.0,
        faults=FaultPlan(
            bit_flips=(
                BitFlipFault(shard_id=1, t_s=0.020, target="vr",
                             vr=4, bit=9, element=1234),
                BitFlipFault(shard_id=2, t_s=0.050, target="dma",
                             bit=4, element=100, burst_bits=3),
                BitFlipFault(shard_id=3, t_s=0.080, target="stuck",
                             vr=5, bit=0, element=7),
            ),
        ),
        retry=RetryPolicy(max_retries=2, backoff_base_s=1e-3,
                          backoff_cap_s=8e-3),
        failover="reroute",
        integrity=IntegrityConfig(enabled=True, max_recomputes=3,
                                  scrub_interval_s=0.050, scrub_vrs=8),
    )


def golden_ecc_config() -> ServeConfig:
    """The canonical ECC workload pinned by the ECC golden trace.

    The golden serving workload with SEC-DED (72,64) protection and one
    upset of each decode class: a single-bit VR flip on shard 1
    (corrected in place, the batch stays clean), a 3-bit DMA burst on
    shard 2 (beyond SEC-DED's capability -- the decoder miscorrects,
    and with ABFT off the damage ships as an SDC), and **two** stuck-at
    cells in the same 64-bit codeword on shard 3 -- every batch decodes
    detected-uncorrectable, the retry budget burns out, and the shard
    escalates to death/failover.  Exercises every ECC event kind plus
    the escalation path in one sub-second run.
    """
    return ServeConfig(
        spec=PAPER_CORPORA["10GB"],
        n_shards=4,
        batch=BatchPolicy(max_batch=8, max_wait_s=2e-3),
        k=5,
        qps=400.0,
        n_requests=64,
        seed=0,
        slo_s=1.0,
        faults=FaultPlan(
            bit_flips=(
                BitFlipFault(shard_id=1, t_s=0.020, target="vr",
                             vr=4, bit=9, element=1234),
                BitFlipFault(shard_id=2, t_s=0.050, target="dma",
                             bit=4, element=100, burst_bits=3),
                BitFlipFault(shard_id=3, t_s=0.080, target="stuck",
                             vr=5, bit=0, element=7),
                BitFlipFault(shard_id=3, t_s=0.080, target="stuck",
                             vr=5, bit=1, element=7),
            ),
        ),
        retry=RetryPolicy(max_retries=2, backoff_base_s=1e-3,
                          backoff_cap_s=8e-3),
        failover="reroute",
        ecc=ECCConfig(enabled=True, tier="secded"),
    )
