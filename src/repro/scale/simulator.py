"""Closed-loop elastic serving: autoscaling, admission, load shedding.

:class:`ScaleSimulator` drives a request stream through an *elastic*
pool of simulated APU shard devices.  With no :class:`ScalePolicy` the
configuration is a plain static deployment and the simulator runs it
through :class:`~repro.serve.simulator.ServingSimulator` -- the same
event loop, pinned, the same engines and the same reports, bit for bit
(the differential suite in ``tests/scale`` proves it).  Either way a run ends in one
:class:`~repro.serve.record.RunRecord`, and traces, telemetry and the
monitor are the same views of it in both modes.  With a policy
attached, the run becomes a closed control loop:

* arrivals carry a **priority class** (assigned by a seeded draw over
  the policy's class shares) and pass **admission control**: when the
  pool's queue pressure exceeds the class's shed threshold the request
  is shed instead of enqueued -- low-weight background traffic sheds
  first, protecting interactive traffic;
* at a fixed cadence the loop reads the trailing window's SLO burn
  from the :class:`~repro.monitor.signal.BurnSignal` it owns, and a
  :class:`~repro.scale.controller.BurnRateController` turns it into
  attach or detach verdicts within the policy's pool bounds;
* a newly attached device is **cold**: it serves nothing until its
  corpus slice has streamed in through the simulated HBM (the
  :meth:`~repro.scale.pool.ElasticAPUDevicePool.warmup_seconds` DMA-in
  cost), after which the pool re-anchors on the new topology;
* a detached device **drains**: queued sub-queries finish on its frozen
  slice (the mirror image of the static simulator's shard-death
  takeover), while new arrivals fan out to the remaining devices.

An elastic run drives the one serving event loop,
:class:`~repro.serve.scheduler.PoolLoop` -- the loop a static fleet
runs pinned to its devices.  The loop and its
:class:`~repro.serve.scheduler.ShardMachine` hold everything the two
share: batching, timeouts, outage interrupts, backoff retries,
corruption detection + recompute, the ECC verdict, death on
retry-budget exhaustion, the arrival merge with bulk admission while
every serving device is busy, and the re-anchor of every serving slot
(priced by the pool, a
:class:`~repro.serve.simulator.SliceCostModel`, and logged so the
record replays each batch's slice without a per-dispatch hook).  This
module adds only what is elastic, as callbacks the loop calls:
admission and shedding, controller ticks, attach/warm-up/detach/drain,
closed-loop issues, and the failover reaction to a death.  The
per-tick overdue count is the amortized-O(1)
:class:`~repro.simcore.elastic.OverdueTracker` over the machine's own
columns, the per-tick burn is a forward-cursor read of the signal's
columns, and ``ServeConfig.engine`` selects only the static backend.
Per-request state stays in the machine's flat columns, so a plain
:meth:`run` reports from them without building a ``RequestRecord``.
Every random draw (arrival process, priority classes, closed-loop think
times) comes from seeded generators, so runs are bit-deterministic --
including across processes and ``PYTHONHASHSEED`` values.

**Fault plans and ABFT integrity compose with the elastic loop**, which
closes the control loop over the shared fault machinery:

* each :class:`PriorityClass` carries its own trailing burn window and
  the controller scales on the **worst** class, so a starving
  background class asks for capacity even while interactive is green;
* shard deaths and sustained stalls feed the signal as *violation
  pressure* -- pressure forces the controller's scale-up branch and
  vetoes scale-down;
* a shard death triggers an immediate **failover attach** (bypassing
  the cooldown): the dead slice is redistributed over the survivors by
  the one takeover rule a static fleet's reroute also uses
  (:func:`~repro.serve.simulator.counts_for`, pooling every detached
  slice), and a cold spare streams its corpus slice in through the HBM
  model before joining;
* a stuck-at cell under protection burns the retry budget and
  escalates to the same replace-and-drain, so integrity faults cost
  latency, not permanent capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..core.params import APUParams, DEFAULT_PARAMS
from ..faults.plan import BitFlipFault, FaultPlan, OutageFault, StallFault
from ..integrity.config import IntegrityConfig
from ..monitor.signal import BurnSignal
from ..obs import collector as _trace_collector
from ..rag.corpus import PAPER_CORPORA
from ..rag.generation import GenerationModel
from ..serve.metrics import LatencyStats, slo_attainment, utilization
from ..serve.scheduler import FIRST_DRIVER_KIND, BatchPolicy, PoolLoop, \
    RetryPolicy, ShardMachine
from ..serve.record import RunRecord, collector_paused, \
    emit_run_trace, observe_run
from ..serve.sharding import merge_cycles, merge_seconds
from ..serve.simulator import ServeConfig, ServeReport, \
    ServingSimulator, ecc_line, latency_lines
from ..serve.workload import ClosedLoopConfig, poisson_arrival_times, \
    spike_arrival_times, validate_arrival_times
from ..simcore.elastic import OverdueTracker
from .controller import SCALE_DOWN, SCALE_UP, BurnRateController
from .policy import AutoscalePolicy, PoolBoundsError, ScalePolicy, \
    ScalePolicyError
from .pool import ElasticAPUDevicePool
from .telemetry import build_scale_metrics

__all__ = [
    "ScaleConfigError",
    "ScaleConfig",
    "ScaleAction",
    "ScaleReport",
    "ScaleSimulator",
    "golden_autoscale_config",
    "golden_autoscale_fault_config",
]

#: Driver event kinds, numbered after the shard machine's own, in the
#: order of the loop's handler table.
_WARM, _CONTROL, _ISSUE = \
    FIRST_DRIVER_KIND, FIRST_DRIVER_KIND + 1, FIRST_DRIVER_KIND + 2

#: Builds a NamedTuple without its generated ``__new__`` frame:
#: ``_new_tuple(Cls, (every field))``.
_new_tuple = tuple.__new__


class ScaleConfigError(ScalePolicyError):
    """A ScaleConfig combines features that do not compose.

    Part of the typed :class:`~repro.scale.policy.ScalePolicyError`
    hierarchy (itself a ``ValueError``), so callers can catch scale
    misconfiguration separately from generic value errors."""


@dataclass(frozen=True)
class ScaleConfig:
    """One elastic serving deployment + workload configuration.

    ``serve`` is the base deployment (its ``n_shards`` is the *initial*
    pool size); ``policy=None`` makes the configuration static and the
    simulator a bit-identical front for
    :class:`~repro.serve.simulator.ServingSimulator`.  ``arrivals``
    replaces the default Poisson stream with explicit timestamps (the
    spike/bursty/diurnal generators), and ``closed_loop`` replaces the
    open-loop stream with a think-time client population (elastic runs
    only).
    """

    serve: ServeConfig
    policy: Optional[ScalePolicy] = None
    arrivals: Optional[Tuple[float, ...]] = None
    closed_loop: Optional[ClosedLoopConfig] = None

    def __post_init__(self) -> None:
        if not isinstance(self.serve, ServeConfig):
            raise ScaleConfigError(
                f"serve must be a ServeConfig, "
                f"got {type(self.serve).__name__}")
        if self.policy is not None \
                and not isinstance(self.policy, ScalePolicy):
            raise ScaleConfigError(
                f"policy must be a ScalePolicy or None, "
                f"got {type(self.policy).__name__}")
        if self.closed_loop is not None \
                and not isinstance(self.closed_loop, ClosedLoopConfig):
            raise ScaleConfigError(
                f"closed_loop must be a ClosedLoopConfig or None, "
                f"got {type(self.closed_loop).__name__}")
        if self.arrivals is not None:
            if self.closed_loop is not None:
                raise ScaleConfigError(
                    "arrivals and closed_loop are mutually exclusive")
            times = validate_arrival_times(self.arrivals, ScaleConfigError)
            object.__setattr__(self, "arrivals", tuple(times.tolist()))
        if self.policy is None:
            if self.closed_loop is not None:
                raise ScaleConfigError(
                    "closed_loop clients need a ScalePolicy (the static "
                    "path is open-loop only)")
            return
        auto = self.policy.autoscale
        if not auto.min_shards <= self.serve.n_shards <= auto.max_shards:
            raise PoolBoundsError(
                f"initial pool size {self.serve.n_shards} outside "
                f"[{auto.min_shards}, {auto.max_shards}]")


class ScaleAction(NamedTuple):
    """One autoscaler/admission decision, in event order.

    An immutable typed tuple, built once per control tick, shed and
    topology change; the loop builds ticks and sheds with
    ``tuple.__new__`` over every field, in field order.  Its ``repr``
    is the dataclass form, ``ScaleAction(kind=..., ...)``.
    """

    # "tick" | "attach" | "warm" | "detach" | "drained" | "shed" | "dead"
    kind: str
    t_s: float
    shard_id: int = -1
    #: Serving devices after the action took effect.
    pool_size: int = 0
    burn_rate: float = 0.0
    #: Warm-up DMA-in duration for ``attach`` actions.
    duration_s: float = 0.0
    #: Priority class name for ``shed`` actions.
    priority: str = ""
    #: Why the action fired: ``"failover"`` marks an attach that
    #: replaces a dead device (cooldown-bypassing), empty otherwise.
    reason: str = ""
    #: Per-priority-class burn rates at ``tick`` actions -- the signal
    #: readings the controller decided on, recorded so the monitor's
    #: burn series provably samples the signal the autoscaler acted on.
    class_burns: Tuple[float, ...] = ()


@dataclass(frozen=True)
class ScaleReport:
    """Everything one elastic simulation run produced."""

    config: ScaleConfig
    n_offered: int
    n_admitted: int
    n_shed: int
    n_completed: int
    makespan_s: float
    throughput_qps: float
    #: Fraction of *offered* requests that completed within the SLO
    #: (shed and late requests both count against it).
    goodput: float
    retrieval: LatencyStats
    tti: LatencyStats
    #: SLO attainment among completed requests.
    slo_attainment: float
    pool_min: int
    pool_max: int
    pool_final: int
    n_attaches: int
    n_detaches: int
    warmup_total_s: float
    shard_utilization: Tuple[float, ...]
    n_batches: int
    mean_batch_size: float
    peak_burn_rate: float
    shed_by_class: Tuple[Tuple[str, int], ...]
    completed_by_class: Tuple[Tuple[str, int], ...]
    actions: Tuple[ScaleAction, ...] = field(repr=False)
    #: Per-class peak burn rate over the run, in class order.
    class_burn_peaks: Tuple[Tuple[str, float], ...] = ()
    #: Shards declared dead during the run.
    n_shard_failures: int = 0
    #: Cooldown-bypassing replacement attaches answering a death.
    n_failovers: int = 0
    #: Batch attempts aborted at the per-batch timeout.
    n_timeouts: int = 0
    #: Batch attempts cut short by an outage.
    n_interrupted: int = 0
    #: Backoff-gated retry rounds.
    n_retries: int = 0
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
    #: Codewords the ECC decoder silently miscorrected.
    n_ecc_miscorrections: int = 0
    #: Requests that lost at least one shard answer to a death.
    degraded_requests: int = 0

    def format(self) -> str:
        """Human-readable report block for the CLI."""
        cfg = self.config.serve
        policy = self.config.policy
        assert policy is not None
        auto = policy.autoscale
        lines = [
            f"elastic serving {cfg.spec.label}: pool "
            f"[{auto.min_shards}, {auto.max_shards}] starting at "
            f"{cfg.n_shards}, {self.n_offered} offered (seed {cfg.seed})",
            f"  admission: {self.n_admitted} admitted, {self.n_shed} shed "
            + " ".join(f"{name}={count}"
                       for name, count in self.shed_by_class),
            f"  autoscaler: {self.n_attaches} attach(es) "
            f"({self.warmup_total_s * 1e3:.3f} ms warm-up DMA-in), "
            f"{self.n_detaches} detach(es), pool {self.pool_min}"
            f"->{self.pool_max}, final {self.pool_final}, "
            f"peak burn {self.peak_burn_rate:.2f}",
            f"  throughput: {self.throughput_qps:8.1f} qps sustained "
            f"({self.n_completed} completed in {self.makespan_s:.3f} s), "
            f"{self.n_batches} batches, "
            f"mean size {self.mean_batch_size:.2f}",
        ]
        lines += latency_lines(self)
        lines.append(
            f"  SLO {cfg.slo_s * 1e3:g} ms: "
            f"{self.slo_attainment * 100:.1f}% attained among completed, "
            f"goodput {self.goodput * 100:.1f}% of offered")
        lines.append(
            "  utilization: "
            + "  ".join(f"slot{i} {u * 100:5.1f}%"
                        for i, u in enumerate(self.shard_utilization)))
        if self.class_burn_peaks:
            lines.append(
                "  class burn peaks: "
                + "  ".join(f"{name} {peak:.2f}"
                            for name, peak in self.class_burn_peaks))
        if cfg.faults:
            lines.append(
                f"  faults: {cfg.faults.n_faults} scripted -> "
                f"{self.n_timeouts} timeouts, {self.n_interrupted} "
                f"interrupted, {self.n_retries} retries, "
                f"{self.n_shard_failures} death(s), "
                f"{self.n_failovers} failover attach(es), "
                f"{self.degraded_requests} degraded request(s)")
        if cfg.faults.bit_flips or cfg.integrity.enabled:
            mode = "protected" if cfg.integrity.enabled else "UNPROTECTED"
            lines.append(
                f"  integrity ({mode}): "
                f"{len(cfg.faults.bit_flips)} scripted flip(s) -> "
                f"{self.n_corruptions_detected} detected, "
                f"{self.n_recomputes} recomputed, "
                f"{self.n_sdc_escapes} escaped")
        if cfg.ecc.enabled:
            lines.append(ecc_line(cfg.ecc, self))
        return "\n".join(lines)


class ScaleSimulator:
    """Drive a request stream through the elastic serving stack.

    Every elastic entry point drives the serving loop once
    (:meth:`_run_elastic`) and builds one report (:meth:`_build_report`,
    which reads the shard machine's per-request columns), and ends with
    the run's
    :class:`~repro.serve.record.RunRecord` -- the same record a static
    configuration's :meth:`ServingSimulator._simulate` leaves, read by
    the same views.  Its ``result`` -- the ``ScheduleResult`` with its
    ``RequestRecord`` objects -- is built only when a view reads it: an
    active trace collector, telemetry, or the monitor.
    """

    def __init__(self, config: ScaleConfig,
                 params: APUParams = DEFAULT_PARAMS,
                 generator: Optional[GenerationModel] = None):
        self.config = config
        self.params = params
        self.generator = generator or GenerationModel()
        self._static: Optional[ServingSimulator] = None
        self._pool: Optional[ElasticAPUDevicePool] = None
        # A fault or ECC model loads only when its switch is on.
        self._injector = None
        self._ecc = None
        if config.policy is None:
            self._static = ServingSimulator(
                config.serve, params=params, generator=self.generator)
        else:
            self._pool = ElasticAPUDevicePool(
                config.serve.spec, config.policy.autoscale.max_shards,
                config.serve.k, params,
                integrity=config.serve.integrity,
                ecc=config.serve.ecc)
            if config.serve.faults:
                # The plan is validated against the initial pool size
                # (ServeConfig already did), so scripted faults only
                # ever strike the devices present at t=0; spare slots
                # attached later are clean hardware.
                from ..faults.injector import FaultInjector

                self._injector = FaultInjector(
                    config.serve.faults, self._pool.capacity)
            if config.serve.ecc.enabled:
                from ..ecc.model import ECCModel

                self._ecc = ECCModel(config.serve.ecc)
        self.prefill_s = self.generator.prefill_seconds()
        self._merge_memo: Dict[int, float] = {}

    # ------------------------------------------------------------------
    @property
    def is_static(self) -> bool:
        return self._static is not None

    def _merge_for(self, n_required: int) -> float:
        cost = self._merge_memo.get(n_required)
        if cost is None:
            # A zero-width request (admitted while every device was
            # dead) resolves empty-handed and merges nothing.
            cost = 0.0 if n_required <= 0 else merge_seconds(
                n_required, self.config.serve.k, self.params)
            self._merge_memo[n_required] = cost
        return cost

    def _static_requests(self) -> Optional[np.ndarray]:
        if self.config.arrivals is None:
            return None
        return np.asarray(self.config.arrivals, dtype=np.float64)

    # ------------------------------------------------------------------
    def _run_record(self, capture: bool) -> RunRecord:
        """One run of either mode, as its record (``capture`` adds the
        telemetry capture)."""
        if self._static is not None:
            return self._static._simulate(self._static_requests(), capture)
        return self._run_elastic(capture)

    @collector_paused()
    def run(self) -> Union[ServeReport, ScaleReport]:
        """Simulate the configured stream.

        Static configurations return the **identical**
        :class:`~repro.serve.simulator.ServeReport` the static simulator
        produces (and emit the identical trace events); elastic ones
        return a :class:`ScaleReport`.
        """
        return self._run_record(capture=False).report

    @collector_paused()
    def run_with_telemetry(self) -> Tuple[Any, Any]:
        """Simulate and derive request-level telemetry.

        Returns ``(report, telemetry)``: static configurations give the
        static simulator's ``(ServeReport, RunTelemetry)``; elastic ones
        ``(ScaleReport, RunTelemetry)`` with critical paths per admitted
        request, a scale-specific metrics registry, and span trees built
        on first access.
        """
        from ..telemetry.build import build_run_telemetry

        record = self._run_record(capture=True)
        return record.report, build_run_telemetry(record)

    @collector_paused()
    def run_with_monitor(self, *, cadence_s: Optional[float] = None,
                         workload: str = "serve_autoscale"
                         ) -> Tuple[Any, Any, Any]:
        """Simulate, derive telemetry, and sample the monitor series.

        Returns ``(report, telemetry, monitor)``; report and telemetry
        are bit-identical to :meth:`run_with_telemetry` because the
        monitor is a pure post-hoc derivation from the same run record.
        Elastic runs default the sampling cadence to the autoscaler's
        control interval so cadence samples land exactly on tick
        instants, where the burn series takes the controller's recorded
        per-class readings (``ScaleAction.class_burns``).
        """
        record = self._run_record(capture=True)
        telemetry, monitor = observe_run(record, workload=workload,
                                         cadence_s=cadence_s)
        return record.report, telemetry, monitor

    # ------------------------------------------------------------------
    def _run_elastic(self, capture: bool) -> RunRecord:
        cfg = self.config.serve
        policy = self.config.policy
        assert policy is not None and self._pool is not None
        pool = self._pool
        auto = policy.autoscale
        classes = policy.priorities
        shares = np.asarray(policy.shares, dtype=np.float64)
        budget = auto.error_budget
        interval_s = auto.control_interval_s
        shed_at = [policy.admission.shed_queue_batches * cls.weight
                   for cls in classes]
        controller = BurnRateController(auto)
        signal = BurnSignal(interval_s, cfg.slo_s, len(classes))
        injector = self._injector
        n_warming = 0

        priorities: Dict[int, int] = {}
        tti_latency: Dict[int, float] = {}
        actions: List[ScaleAction] = []
        shed_counts = [0 for _ in classes]
        class_burn_peaks = [0.0 for _ in classes]
        n_open = 0
        n_attaches = n_detaches = n_failovers = 0
        pool_min = pool_max = cfg.n_shards
        peak_burn = 0.0
        warmup_total = 0.0

        note_completion = signal.note_completion
        class_burns = signal.class_burns
        slo_s = cfg.slo_s
        decide = controller.decide
        merge_memo = self._merge_memo
        merge_for = self._merge_for
        prefill_s = self.prefill_s

        def on_resolved(req_id: int, now: float) -> None:
            nonlocal n_open
            n_open -= 1
            arrival = arrival_col[req_id]
            if overdue.read_s - arrival > slo_s:
                # The last control tick counted it overdue.
                settle_overdue(req_id)
            required = required_col[req_id]
            merge = merge_memo.get(required)
            if merge is None:
                merge = merge_for(required)
            lat = (now - arrival) + merge + prefill_s
            tti_latency[req_id] = lat
            note_completion(now, lat, priorities[req_id])
            if closed is not None:
                next_think(now + merge + prefill_s)

        def track_pool() -> None:
            nonlocal pool_min, pool_max
            pool_min = min(pool_min, len(serving))
            pool_max = max(pool_max, len(serving))

        def on_death(shard_id: int, now: float, was_serving: bool) -> None:
            """The failover reaction, once the loop has regrouped the
            survivors: note the death on the signal and attach a
            spare."""
            track_pool()
            actions.append(ScaleAction(
                kind="dead", t_s=now, shard_id=shard_id,
                pool_size=len(serving)))
            if was_serving:
                signal.note_fault(now)
                if controller.decide_failover(now, len(serving),
                                              n_warming):
                    attach_slots(now, 0.0, 1, reason="failover")

        def admit(req_id: int, now: float, pressure: float) -> bool:
            """Shed or register one arrival; True when admitted."""
            nonlocal n_open
            prio = priorities[req_id]
            if pressure >= shed_at[prio]:
                shed_counts[prio] += 1
                actions.append(_new_tuple(ScaleAction, (
                    "shed", now, -1, len(serving), 0.0, 0.0,
                    classes[prio].name, "", ())))
                if closed is not None:
                    next_think(now)
                return False
            register(req_id, now, len(serving))
            n_open += 1
            track_overdue(req_id)
            return True

        def attach_slots(now: float, burn: float, want: int,
                         reason: str = "") -> None:
            nonlocal n_warming, warmup_total, n_attaches, n_failovers
            candidates = [j for j in range(pool.capacity)
                          if not (slots[j].serving or slots[j].warming
                                  or slots[j].draining or shards[j].dead)]
            committed = serving + [j for j in range(pool.capacity)
                                   if slots[j].warming]
            for j in candidates[:want]:
                committed = sorted(committed + [j])
                count = pool.counts_for(committed)[j]
                warm_s = pool.warmup_seconds(count)
                slots[j].warming = True
                n_warming += 1
                warmup_total += warm_s
                n_attaches += 1
                n_failovers += reason == "failover"
                push(now + warm_s, _WARM, j)
                actions.append(ScaleAction(
                    kind="attach", t_s=now, shard_id=j,
                    pool_size=len(serving), burn_rate=burn,
                    duration_s=warm_s, reason=reason))

        def note_drained(j: int, now: float) -> None:
            slots[j].draining = False
            actions.append(ScaleAction(
                kind="drained", t_s=now, shard_id=j,
                pool_size=len(serving)))

        def scale_down(now: float, burn: float) -> None:
            nonlocal n_detaches
            j = serving.pop()
            slots[j].serving = False
            slots[j].draining = True
            regroup()
            track_pool()
            n_detaches += 1
            actions.append(ScaleAction(
                kind="detach", t_s=now, shard_id=j,
                pool_size=len(serving), burn_rate=burn))
            if not shards[j].queue and not shards[j].busy:
                note_drained(j, now)

        def control_tick(_payload: None, now: float) -> None:
            nonlocal peak_burn
            burns = class_burns(now, overdue_counts(now), budget)
            burn = 0.0
            for i, class_burn in enumerate(burns):
                if class_burn > class_burn_peaks[i]:
                    class_burn_peaks[i] = class_burn
                if class_burn > burn:
                    burn = class_burn
            if burn > peak_burn:
                peak_burn = burn
            actions.append(_new_tuple(ScaleAction, (
                "tick", now, -1, len(serving), burn, 0.0, "", "",
                tuple(burns))))
            pressure = 0
            if injector is not None:
                # Fault pressure: deaths/stall onsets noted inside the
                # trailing window plus devices currently running
                # degraded.  Forces the scale-up branch and vetoes
                # scale-down at the controller.  A slot inside its calm
                # window runs at multiplier one.
                pressure = signal.recent_faults(now)
                for j in serving:
                    state = shards[j]
                    if not state.calm_lo <= now < state.calm_hi \
                            and injector.multiplier(j, now) > 1.0:
                        pressure += 1
            verdict = decide(now, burn, len(serving), n_warming, pressure)
            if verdict == SCALE_UP:
                room = auto.max_shards - (len(serving) + n_warming)
                attach_slots(now, burn, min(auto.scale_up_step, room))
            elif verdict == SCALE_DOWN:
                scale_down(now, burn)
            # Work remains: open requests, pending issues, or open-loop
            # arrivals not yet taken (each taken one was registered or
            # shed).
            if n_open > 0 or issues_pending > 0 or issued < n_expected \
                    or len(arrival_col) + sum(shed_counts) < n_arrivals:
                push(now + interval_s, _CONTROL, None)

        def warm(j: int, now: float) -> None:
            nonlocal n_warming
            slots[j].warming = False
            slots[j].serving = True
            n_warming -= 1
            serving.append(j)
            serving.sort()
            regroup()
            track_pool()
            actions.append(ScaleAction(
                kind="warm", t_s=now, shard_id=j, pool_size=len(serving)))

        def issue(_client: int, now: float) -> None:
            nonlocal issues_pending, issued
            issues_pending -= 1
            if issued >= n_expected:
                return
            req_id = issued
            issued += 1
            prio = int(rng_priority.choice(len(classes), p=shares))
            priorities[req_id] = prio
            loop.arrive(req_id, now)

        loop = PoolLoop(
            pool.capacity, cfg.batch, model=pool, place=pool.counts_for,
            n_serving=cfg.n_shards, injector=injector, retry=cfg.retry,
            protected=cfg.integrity.enabled,
            ecc=self._ecc,
            on_resolved=on_resolved, on_death=on_death, admit=admit,
            drivers=(warm, control_tick, issue),
            drained=note_drained)
        machine = loop.machine
        serving, slots, regroup = loop.serving, loop.slots, loop.regroup
        shards, register, push = machine.shards, machine.register, \
            machine.push
        arrival_col, required_col = machine.arrival_s, machine.n_required
        # Overdue requests, counted over the machine's columns: each
        # admission only appends its id.
        overdue = OverdueTracker.sharing(slo_s, len(classes), arrival_col,
                                         priorities, machine.done_s)
        track_overdue = overdue.admitted.append
        settle_overdue, overdue_counts = overdue.settle, overdue.counts

        closed = self.config.closed_loop
        arr_times: List[float] = []
        issues_pending = 0
        if closed is None:
            if self.config.arrivals is not None:
                arr_times = list(self.config.arrivals)
            else:
                arr_times = poisson_arrival_times(
                    cfg.qps, cfg.n_requests, cfg.seed).tolist()
            rng_priority = np.random.default_rng([cfg.seed, 101])
            assigned = rng_priority.choice(
                len(classes), size=len(arr_times), p=shares)
            n_expected = issued = len(arr_times)
            priorities.update(enumerate(assigned.tolist()))
        else:
            rng_priority = np.random.default_rng([closed.seed, 101])
            rng_think = np.random.default_rng([closed.seed, 211])
            n_expected = closed.n_requests
            issued = 0
            offsets = rng_think.exponential(
                closed.think_time_s, size=closed.n_clients)
            for client, offset in enumerate(offsets):
                push(float(offset), _ISSUE, client)
                issues_pending += 1
        n_arrivals = len(arr_times)

        def next_think(after_s: float) -> None:
            nonlocal issues_pending
            assert closed is not None
            if issued >= n_expected:
                return
            think = float(rng_think.exponential(closed.think_time_s))
            push(after_s + think, _ISSUE, -1)
            issues_pending += 1

        push(interval_s, _CONTROL, None)
        loop.run(arr_times)

        if not arrival_col:  # pragma: no cover - first arrival admits
            raise RuntimeError("every offered request was shed")
        merge_by_required = dict(self._merge_memo)
        report = self._build_report(machine, priorities, tti_latency,
                                    merge_by_required, shed_counts, actions,
                                    pool_min, pool_max, len(serving),
                                    peak_burn, warmup_total,
                                    class_burn_peaks, n_attaches,
                                    n_detaches, n_failovers)
        record = RunRecord(
            report=report, config=cfg, params=self.params,
            materialize=loop.materialize,
            merge=merge_by_required,
            # A zero-width request (admitted while every device was
            # dead) merges nothing.
            merge_cycles={
                n: merge_cycles(n, cfg.k, self.params) if n > 0 else 0.0
                for n in merge_by_required},
            prefill_s=self.prefill_s,
            metrics=build_scale_metrics,
            error_budget=budget,
            host_lane=pool.capacity,
            cadence_s=interval_s,
            stage_tables=loop.stage_tables() if capture else None,
            tti_by_req=tti_latency,
            class_names=tuple(cls.name for cls in classes),
            priorities=priorities,
            actions=report.actions,
            attach_bytes={j: pool.embedding_bytes(pool.base_counts[j])
                          for j in range(pool.capacity)},
        )
        trace = _trace_collector.ACTIVE
        if trace is not None and trace.enabled:
            emit_run_trace(record, trace)
        return record

    # ------------------------------------------------------------------
    def _build_report(self, machine: ShardMachine,
                      priorities: Dict[int, int],
                      tti_latency: Dict[int, float],
                      merge_by_required: Dict[int, float],
                      shed_counts: List[int],
                      actions: List[ScaleAction],
                      pool_min: int, pool_max: int, pool_final: int,
                      peak_burn: float, warmup_total: float,
                      class_burn_peaks: List[float], n_attaches: int,
                      n_detaches: int, n_failovers: int) -> ScaleReport:
        """The report, read from the machine's per-request columns.

        Samples run in ``req_id`` order with the record arithmetic
        (``(done - arrival) + merge``), elementwise in float64, so the
        report is bitwise the one a pass over materialized records
        gives.
        """
        cfg = self.config.serve
        policy = self.config.policy
        assert policy is not None
        classes = policy.priorities
        machine.check_complete()
        # Every admitted request resolved through ``on_resolved``, which
        # memoized its fan-out width's merge cost.
        req_ids = sorted(machine.arrival_s)
        arrival_col, done_col = machine.arrival_s, machine.done_s
        required_col = machine.n_required
        n_admitted = len(req_ids)

        def column(values: Dict[int, float]) -> np.ndarray:
            return np.fromiter(map(values.__getitem__, req_ids), float,
                               n_admitted)

        arrival = column(arrival_col)
        done = column(done_col)
        merge = np.fromiter(
            map(merge_by_required.__getitem__,
                map(required_col.__getitem__, req_ids)), float, n_admitted)
        tti_lat = column(tti_latency)
        batches = machine.batches
        n_shed = sum(shed_counts)
        n_offered = n_admitted + n_shed
        n_good = int(np.count_nonzero(tti_lat <= cfg.slo_s))
        completed_by_class = np.bincount(
            [priorities[r] for r in req_ids],
            minlength=len(classes)).tolist()
        makespan = float((done + merge).max()) + self.prefill_s
        n_sizes = sum(len(batch.request_ids) for batch in batches)
        return ScaleReport(
            config=self.config,
            n_offered=n_offered,
            n_admitted=n_admitted,
            n_shed=n_shed,
            n_completed=n_admitted,
            makespan_s=makespan,
            throughput_qps=n_admitted / makespan,
            goodput=n_good / n_offered,
            retrieval=LatencyStats.from_samples((done - arrival) + merge),
            tti=LatencyStats.from_samples(tti_lat),
            slo_attainment=slo_attainment(tti_lat, cfg.slo_s),
            pool_min=pool_min,
            pool_max=pool_max,
            pool_final=pool_final,
            n_attaches=n_attaches,
            n_detaches=n_detaches,
            warmup_total_s=warmup_total,
            shard_utilization=tuple(utilization(
                [state.busy_s for state in machine.shards],
                float(done.max()))),
            n_batches=len(batches),
            mean_batch_size=n_sizes / len(batches) if batches else 0.0,
            peak_burn_rate=peak_burn,
            shed_by_class=tuple(
                (cls.name, shed_counts[i])
                for i, cls in enumerate(classes)),
            completed_by_class=tuple(
                (cls.name, completed_by_class[i])
                for i, cls in enumerate(classes)),
            actions=tuple(actions),
            class_burn_peaks=tuple(
                (cls.name, class_burn_peaks[i])
                for i, cls in enumerate(classes)),
            n_shard_failures=len(machine.death_times),
            n_failovers=n_failovers,
            n_timeouts=machine.n_timeouts,
            n_interrupted=machine.n_interrupted,
            n_retries=machine.n_retries,
            n_corruptions_detected=machine.n_corruptions_detected,
            n_sdc_escapes=machine.n_sdc,
            n_recomputes=machine.n_recomputes,
            n_ecc_corrected=machine.n_ecc_corrected,
            n_ecc_detected=machine.n_ecc_detected,
            n_ecc_miscorrections=machine.n_ecc_miscorrections,
            degraded_requests=len(
                {req_id for req_id, _shard in machine.failed}),
        )


def golden_autoscale_config() -> ScaleConfig:
    """The canonical autoscaling workload pinned by the golden traces.

    A two-device pool (bounds [2, 6]) serving the 10 GB corpus at a
    150 qps floor, hit by a 10x spike 50 ms in: the burn-rate
    controller rides through attach -> warm-up -> serve -> drain-down,
    and admission control sheds a handful of background-class requests
    at the spike's crest -- every SCALE-lane event kind in one
    sub-second run.
    """
    qps = 250.0
    n_requests = 512
    seed = 0
    return ScaleConfig(
        serve=ServeConfig(
            spec=PAPER_CORPORA["10GB"],
            n_shards=2,
            batch=BatchPolicy(max_batch=8, max_wait_s=2e-3),
            k=5,
            qps=qps,
            n_requests=n_requests,
            seed=seed,
            # TTI = retrieval + merge + prefill; prefill alone is
            # ~501.6 ms, so the budget leaves ~10 ms for queueing.
            slo_s=0.512,
        ),
        policy=ScalePolicy(
            autoscale=AutoscalePolicy(min_shards=2, max_shards=6)),
        arrivals=tuple(
            float(t) for t in spike_arrival_times(
                qps, n_requests, seed,
                spike_start_s=0.050, spike_duration_s=0.150,
                spike_multiplier=10.0)),
    )


def golden_autoscale_fault_config() -> ScaleConfig:
    """The canonical fault-under-autoscaling workload (golden traces).

    The :func:`golden_autoscale_config` spike, with the two initial
    devices scripted through every fault model while the controller
    rides the storm: device 1 stalls under the spike, is interrupted
    by a finite outage, then takes transient and stuck-at bit flips
    under ABFT protection; device 0 hard-fails mid-run, forcing a
    death, a reroute onto the survivor, and a cooldown-bypassing
    failover attach.  Fault plans validate against the *initial* pool,
    so only shards {0, 1} may be scripted.
    """
    base = golden_autoscale_config()
    return ScaleConfig(
        serve=ServeConfig(
            spec=base.serve.spec,
            n_shards=base.serve.n_shards,
            batch=base.serve.batch,
            k=base.serve.k,
            qps=base.serve.qps,
            n_requests=base.serve.n_requests,
            seed=base.serve.seed,
            slo_s=base.serve.slo_s,
            faults=FaultPlan(
                stalls=(
                    StallFault(shard_id=1, start_s=0.020,
                               duration_s=0.060, slowdown=1.5),
                ),
                outages=(
                    OutageFault(shard_id=0, start_s=0.120),
                    OutageFault(shard_id=1, start_s=0.090,
                                duration_s=0.015, recovery_s=0.010,
                                recovery_slowdown=2.0),
                ),
                bit_flips=(
                    BitFlipFault(shard_id=1, t_s=0.150, target="vr",
                                 vr=4, bit=9, element=1234),
                    BitFlipFault(shard_id=1, t_s=0.200, target="stuck",
                                 vr=5, bit=0, element=7),
                ),
            ),
            retry=RetryPolicy(timeout_s=0.012, max_retries=2,
                              backoff_base_s=1e-3, backoff_cap_s=8e-3),
            integrity=IntegrityConfig(enabled=True, max_recomputes=3,
                                      scrub_interval_s=0.050,
                                      scrub_vrs=8),
        ),
        policy=base.policy,
        arrivals=base.arrivals,
    )
