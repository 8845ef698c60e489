"""Deterministic discrete-event scheduler for sharded scatter-gather serving.

Every admitted request fans out to all ``N`` live shards (each device
scans its slice of the corpus); per shard, sub-queries queue FIFO and
are formed into dynamic batches under a **max batch size + max wait**
policy:

* a batch launches immediately once ``max_batch`` sub-queries are
  waiting (or, if the device is busy, as soon as it frees up);
* an under-full batch launches when its oldest sub-query has waited
  ``max_wait_s`` on an idle device.

With a :class:`~repro.faults.FaultInjector` attached, the scheduler
also models the unhappy paths:

* batches dispatched during a stall window run ``slowdown`` times
  longer (evaluated at dispatch, like a real host observing a slow
  device);
* a batch whose service time exceeds :attr:`RetryPolicy.timeout_s` is
  aborted at the deadline and its sub-queries retried; so is a batch a
  scripted outage interrupts mid-flight;
* consecutive failures on a shard gate it behind capped exponential
  backoff, and once :attr:`RetryPolicy.max_retries` consecutive
  failures are exhausted (or a hard outage is reached) the shard is
  **declared dead**: its queue drains, pending requests record the
  shard as failed, and the ``on_death`` hook lets the simulator apply
  its failover policy;
* a shard that is merely down (transient outage) holds its queue and
  resumes -- through the slow-start multiplier -- when the outage ends.

Bit-flip faults in the plan add a *data* dimension on top of the timing
one: a batch whose service window covers a transient flip (or runs
under an active stuck-at cell) computes a **corrupted** result.  With
``protected=True`` (the serving layer's ABFT verification) the
corruption is detected at completion and the batch fails with outcome
``"corrupted"``, riding the existing retry/backoff machinery as a
bounded recompute -- so transient flips cost latency but never answers,
while a stuck-at cell burns the retry budget and escalates to shard
death/failover.  Unprotected, the batch "succeeds" and the corruption
escapes silently: the affected requests record the shard in
``corrupted_shards`` and the log gains an ``"sdc"`` entry.

These per-shard rules are written once, in :class:`ShardMachine`: it
runs queues, batching timers, wakes, completions, the two fault
transitions (judging a dispatch; booking a failed attempt) and death
on a binary heap ordered by ``(time, sequence)``.
:class:`DiscreteEventScheduler` drives the machine over a static
fleet, on either engine whenever a fault injector is attached, merging
its sorted arrivals with the heap (an arrival goes first on a time
tie, as if pushed before every other event), and the
elastic :class:`~repro.scale.simulator.ScaleSimulator` drives it over
an autoscaled pool.  The sequence number makes
simultaneous events process in insertion order, so the whole
simulation is bit-deterministic for a fixed request stream, fault plan,
and service model -- and with no injector the fault paths are never
entered, so the schedule is bit-identical to the fault-free scheduler.
A request's retrieval completes when every shard it was fanned out to
has either finished or been declared dead; downstream costs (top-k
merge, generator prefill) are applied by the simulator on top of the
scheduler output.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Set, Tuple)

import numpy as np

from ..ecc.model import ECCModel
from ..faults.injector import FaultInjector
from ..faults.plan import FaultLogEntry
from .workload import Request, validate_arrival_times

__all__ = [
    "BatchPolicy",
    "RetryPolicy",
    "ExecutedBatch",
    "RequestRecord",
    "ScheduleResult",
    "ShardMachine",
    "DiscreteEventScheduler",
]

#: Builds a NamedTuple from all of its fields without the generated
#: ``__new__`` frame: ``_new_tuple(ExecutedBatch, (every field))``.
_new_tuple = tuple.__new__

#: Event kinds :meth:`ShardMachine.step` handles; drivers number their
#: own kinds from :data:`FIRST_DRIVER_KIND` up on the same heap.
TIMER, DONE, FAIL, WAKE = 0, 1, 2, 3
FIRST_DRIVER_KIND = 4

#: Batch outcomes (dispatch decides them deterministically).
OUTCOME_OK = "ok"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_INTERRUPTED = "interrupted"
#: Completed, but integrity verification rejected the result (the
#: protected scheduler treats this as a failure and recomputes).
OUTCOME_CORRUPTED = "corrupted"


@dataclass(frozen=True)
class BatchPolicy:
    """Dynamic-batching knobs shared by every shard."""

    max_batch: int = 8
    max_wait_s: float = 2e-3

    def __post_init__(self):
        if not isinstance(self.max_batch, (int, np.integer)) \
                or isinstance(self.max_batch, bool) or self.max_batch < 1:
            raise ValueError(
                f"max_batch must be an integer >= 1, got {self.max_batch!r}")
        if not np.isfinite(self.max_wait_s) or self.max_wait_s < 0:
            raise ValueError(
                f"max_wait_s must be >= 0, got {self.max_wait_s!r}")


@dataclass(frozen=True)
class RetryPolicy:
    """Per-batch timeout and bounded retries with capped backoff.

    ``timeout_s`` defaults to infinity (no timeout), which keeps the
    fault-free scheduler's behavior bit-identical; ``max_retries`` is
    the number of *consecutive* failed attempts a shard may accumulate
    before it is declared dead and failed over.  Retry ``i`` (0-based)
    waits ``min(backoff_cap_s, backoff_base_s * 2**i)``.
    """

    timeout_s: float = math.inf
    max_retries: int = 2
    backoff_base_s: float = 1e-3
    backoff_cap_s: float = 8e-3

    def __post_init__(self):
        if math.isnan(self.timeout_s) or self.timeout_s <= 0:
            raise ValueError(
                f"timeout_s must be positive, got {self.timeout_s!r}")
        if not isinstance(self.max_retries, (int, np.integer)) \
                or isinstance(self.max_retries, bool) or self.max_retries < 0:
            raise ValueError(
                f"max_retries must be an integer >= 0, "
                f"got {self.max_retries!r}")
        if not math.isfinite(self.backoff_base_s) or self.backoff_base_s <= 0:
            raise ValueError(
                f"backoff_base_s must be positive and finite, "
                f"got {self.backoff_base_s!r}")
        if not math.isfinite(self.backoff_cap_s) \
                or self.backoff_cap_s < self.backoff_base_s:
            raise ValueError(
                f"backoff_cap_s must be finite and >= backoff_base_s, "
                f"got {self.backoff_cap_s!r}")

    def backoff_s(self, consecutive_failures: int) -> float:
        """Backoff after the ``consecutive_failures``-th failure (1-based)."""
        if consecutive_failures < 1:
            raise ValueError("backoff_s expects a failure count >= 1")
        exponent = min(consecutive_failures - 1, 62)  # avoid overflow
        return min(self.backoff_cap_s, self.backoff_base_s * 2 ** exponent)


class ExecutedBatch(NamedTuple):
    """One batch attempt executed on one shard's device.

    ``service_s`` is the time the device was *occupied*: the full
    service time for a successful attempt, the truncated window for an
    attempt that timed out or was interrupted by an outage.

    An immutable typed tuple: the event loop builds one per dispatch,
    so construction cost is per-event cost (a frozen dataclass pays one
    ``object.__setattr__`` per field).  The machine builds it with
    ``tuple.__new__`` over every field, in field order, which skips the
    generated ``__new__`` frame; a field added here must be added there
    too.  Its ``repr`` is the dataclass form,
    ``ExecutedBatch(shard_id=..., ...)``.
    """

    shard_id: int
    seq: int
    dispatch_s: float
    service_s: float
    request_ids: Tuple[int, ...]
    head_enqueue_s: float
    #: Consecutive-failure count on the shard when this attempt launched.
    attempt: int = 0
    #: Fault-injected service-time multiplier applied at dispatch.
    multiplier: float = 1.0
    outcome: str = OUTCOME_OK
    #: A bit flip landed in this attempt's service window (the result
    #: data is wrong, whatever the outcome says about timing).
    corrupted: bool = False
    #: This attempt re-ran work an integrity verification rejected (the
    #: recompute leg of detect/heal; mirrors the ``"recompute"`` fault
    #: log entry so span builders need no log matching).
    recompute: bool = False

    @property
    def batch_size(self) -> int:
        return len(self.request_ids)

    @property
    def complete_s(self) -> float:
        """Time the device frees up again."""
        return self.dispatch_s + self.service_s

    @property
    def succeeded(self) -> bool:
        return self.outcome == OUTCOME_OK


@dataclass
class RequestRecord:
    """Per-request scatter-gather progress."""

    req_id: int
    arrival_s: float
    shard_done_s: Dict[int, float] = field(default_factory=dict)
    #: Shards declared dead before answering this request.
    failed_shards: Set[int] = field(default_factory=set)
    #: Shards that answered with silently corrupted data (unprotected
    #: runs only; protection converts these into recomputes).
    corrupted_shards: Set[int] = field(default_factory=set)
    #: Shards the request fanned out to (live shards at arrival).
    n_required: int = 0
    #: Time every required shard had answered or failed; ``None`` until
    #: the scatter-gather resolves.
    retrieval_done_s: Optional[float] = None

    @property
    def retrieval_latency_s(self) -> float:
        """Arrival -> scatter-gather resolution (queueing included)."""
        if self.retrieval_done_s is None:
            raise RuntimeError(
                f"request {self.req_id} has not completed retrieval")
        return self.retrieval_done_s - self.arrival_s

    @property
    def fully_served(self) -> bool:
        """Every required shard answered (no failover losses)."""
        return not self.failed_shards


class _FaultTallies:
    """Fault and integrity tallies over ``batches`` and ``fault_log``,
    shared by the finished :class:`ScheduleResult` and the live
    :class:`ShardMachine` (whose report needs no records)."""

    batches: Sequence[ExecutedBatch]
    fault_log: Sequence[FaultLogEntry]

    @property
    def n_timeouts(self) -> int:
        """Batch attempts aborted at the per-batch timeout."""
        return sum(1 for b in self.batches if b.outcome == OUTCOME_TIMEOUT)

    @property
    def n_interrupted(self) -> int:
        """Batch attempts cut short by an outage."""
        return sum(1 for b in self.batches
                   if b.outcome == OUTCOME_INTERRUPTED)

    @property
    def n_retries(self) -> int:
        """Backoff-gated retry rounds across all shards."""
        return sum(1 for entry in self.fault_log if entry.kind == "backoff")

    @property
    def n_corruptions_detected(self) -> int:
        """Batch attempts rejected by integrity verification."""
        return sum(1 for entry in self.fault_log
                   if entry.kind == "corrupted")

    @property
    def n_sdc(self) -> int:
        """Silent-data-corruption escapes (unprotected corrupted batches)."""
        return sum(1 for entry in self.fault_log if entry.kind == "sdc")

    @property
    def n_recomputes(self) -> int:
        """Recompute attempts dispatched after a detected corruption."""
        return sum(1 for entry in self.fault_log
                   if entry.kind == "recompute")

    @property
    def n_ecc_corrected(self) -> int:
        """Codewords the ECC decoder corrected in place."""
        return sum(1 for entry in self.fault_log
                   if entry.kind == "ecc_corrected")

    @property
    def n_ecc_detected(self) -> int:
        """Codewords the ECC decoder flagged as uncorrectable."""
        return sum(1 for entry in self.fault_log
                   if entry.kind == "ecc_detected")

    @property
    def n_ecc_miscorrections(self) -> int:
        """Beyond-capability upsets the decoder silently miscorrected."""
        return sum(1 for entry in self.fault_log
                   if entry.kind == "ecc_miscorrect")


@dataclass(frozen=True)
class ScheduleResult(_FaultTallies):
    """Everything the simulation produced, in deterministic order."""

    n_shards: int
    policy: BatchPolicy
    batches: Tuple[ExecutedBatch, ...]
    records: Tuple[RequestRecord, ...]
    busy_seconds: Tuple[float, ...]
    #: Dynamic fault-handling actions, in event order.
    fault_log: Tuple[FaultLogEntry, ...] = ()
    #: Shard id -> time it was declared dead.
    death_times: Dict[int, float] = field(default_factory=dict)

    @property
    def horizon_s(self) -> float:
        """Last retrieval completion (the simulated makespan)."""
        return max(r.retrieval_done_s for r in self.records
                   if r.retrieval_done_s is not None)


class _ShardState:
    """Mutable per-shard queue/device state during a run."""

    __slots__ = ("queue", "busy", "busy_s", "gen", "timer_armed_gen",
                 "batch_seq", "failures", "blocked_until", "wake_at",
                 "dead", "last_corrupted", "flip_cursor")

    def __init__(self):
        #: Queued request ids; each was enqueued at its arrival.
        self.queue: List[int] = []
        self.busy = False
        self.busy_s = 0.0
        self.gen = 0
        self.timer_armed_gen = -1
        self.batch_seq = 0
        #: Consecutive failed attempts (resets on success).
        self.failures = 0
        #: Backoff gate: no dispatch before this time.
        self.blocked_until = 0.0
        #: Earliest pending wake event (dedupes wake arming).
        self.wake_at = math.inf
        #: Declared dead: failed over, never dispatches again.
        self.dead = False
        #: Last failure was a detected corruption (the next dispatch is
        #: a recompute, logged as such).
        self.last_corrupted = False
        #: Consume-once cursor into the shard's scripted transient
        #: flips: each flip corrupts exactly one completing batch.
        self.flip_cursor = 0


class ShardMachine(_FaultTallies):
    """Heap-driven per-shard machine shared by the event-loop drivers.

    Owns every shard's FIFO queue, the max-batch / max-wait batcher,
    backoff and outage wakes, completions, failures and death, plus the
    run's causal record (:attr:`batches`, :attr:`fault_log`,
    :attr:`death_times` and the per-request columns).  A driver owns
    the clock: it pushes its own event kinds (numbered from
    :data:`FIRST_DRIVER_KIND`) on :attr:`heap` through :meth:`push`,
    pops every event itself, and hands the machine's kinds to
    :meth:`step`.  To fan an arrival out, the driver calls
    :meth:`register`, appends ``req_id`` to each target shard's queue
    and calls :meth:`maybe_dispatch` (or, while the shard is
    busy, only appends).

    Per-request state is flat columns keyed by ``req_id`` --
    :attr:`arrival_s`, :attr:`n_required`, :attr:`outstanding` (answers
    still due) and :attr:`done_s` (scatter-gather resolution) -- plus
    the :attr:`failed` list of ``(req_id, shard_id)`` pairs shard deaths
    drained.  Each answer or death decrements the request's outstanding
    count; at zero it resolves.  No :class:`RequestRecord` exists during
    the run: :meth:`result` builds them from the columns and the
    batches, for consumers that want the object form.

    With an ``injector`` attached the machine also applies the fault
    rules (see the module docstring) under the ``retry`` policy, with
    ``protected`` ABFT verification and an optional ``ecc`` decoder;
    with none, no fault path is ever entered.

    Hooks:

    * ``service_time(shard_id, batch_size) -> seconds`` at every
      dispatch (so a failover may reprice it mid-run), checked positive
      and finite;
    * ``on_dispatch(batch)`` after every dispatch.  Optional, and one
      Python call per batch when set: the static recorded path notes
      each batch's slice with it, while the elastic loop passes none
      and replays the slices from its log of re-anchors;
    * ``on_resolved(req_id, t_s)`` when a request's scatter-gather
      resolves;
    * ``on_death(shard_id, t_s)`` once per death, after the dead
      shard's queue has drained.
    """

    def __init__(self, n_shards: int, policy: BatchPolicy,
                 service_time: Callable[[int, int], float],
                 injector: Optional[FaultInjector] = None,
                 retry: RetryPolicy = RetryPolicy(),
                 protected: bool = False,
                 ecc: Optional[ECCModel] = None,
                 on_dispatch: Optional[Callable[[ExecutedBatch], None]] = None,
                 on_resolved: Optional[Callable[[int, float], None]] = None,
                 on_death: Optional[Callable[[int, float], None]] = None):
        self.policy = policy
        self.max_batch = policy.max_batch
        self.max_wait_s = policy.max_wait_s
        self.service_time = service_time
        self.injector = injector
        self.retry = retry
        self.protected = protected
        self.ecc = ecc
        self.on_dispatch = on_dispatch
        self.on_resolved = on_resolved
        self.on_death = on_death
        #: ``(time, sequence, kind, payload)`` events; the sequence
        #: number makes simultaneous events pop in push order.
        self.heap: List[tuple] = []
        self._next_seq = itertools.count().__next__
        self.shards = [_ShardState() for _ in range(n_shards)]
        #: Per-request columns, keyed by ``req_id`` in registration
        #: order (:attr:`done_s` in resolution order).
        self.arrival_s: Dict[int, float] = {}
        self.n_required: Dict[int, int] = {}
        self.outstanding: Dict[int, int] = {}
        self.done_s: Dict[int, float] = {}
        #: ``(req_id, shard_id)`` pairs failed by shard deaths.
        self.failed: List[Tuple[int, int]] = []
        self.batches: List[ExecutedBatch] = []
        self.fault_log: List[FaultLogEntry] = []
        #: Shard id -> time it was declared dead.
        self.death_times: Dict[int, float] = {}

    def push(self, time_s: float, kind: int, payload) -> None:
        heapq.heappush(self.heap, (time_s, self._next_seq(), kind, payload))

    def register(self, req_id: int, arrival_s: float,
                 n_required: int) -> None:
        """Open one request fanned out to ``n_required`` shards; with
        none to ask it resolves empty-handed at once."""
        self.arrival_s[req_id] = arrival_s
        self.n_required[req_id] = n_required
        self.outstanding[req_id] = n_required
        if n_required <= 0:
            self._resolve(req_id, arrival_s)

    def _resolve(self, req_id: int, now: float) -> None:
        self.done_s[req_id] = now
        if self.on_resolved is not None:
            self.on_resolved(req_id, now)

    @staticmethod
    def _served_twice(req_id: int, shard_id: int) -> RuntimeError:
        return RuntimeError(
            f"request {req_id} served twice: shard {shard_id} settled "
            f"it more times than the request fanned out")

    def _declare_dead(self, shard_id: int, now: float) -> None:
        state = self.shards[shard_id]
        if state.dead:
            return
        state.dead = True
        state.gen += 1  # stale any armed timer
        self.death_times[shard_id] = now
        self.fault_log.append(FaultLogEntry(
            kind="dead", shard_id=shard_id, t_s=now,
            attempt=state.failures))
        outstanding = self.outstanding
        for req_id in state.queue:
            self.failed.append((req_id, shard_id))
            left = outstanding[req_id] - 1
            outstanding[req_id] = left
            if left <= 0:
                if left < 0:
                    raise self._served_twice(req_id, shard_id)
                self._resolve(req_id, now)
        state.queue.clear()
        if self.on_death is not None:
            self.on_death(shard_id, now)

    def _arm_wake(self, shard_id: int, at_s: float) -> None:
        state = self.shards[shard_id]
        if at_s < state.wake_at:
            state.wake_at = at_s
            self.push(at_s, WAKE, shard_id)

    def _dispatch(self, shard_id: int, now: float) -> None:
        state = self.shards[shard_id]
        queue = state.queue
        take = len(queue)
        if take > self.max_batch:
            take = self.max_batch
        head_enqueue = self.arrival_s[queue[0]]
        request_ids = tuple(queue[:take])
        del queue[:take]
        base = float(self.service_time(shard_id, take))
        if not 0.0 < base < math.inf:  # also rejects NaN
            raise ValueError(
                f"service_time must be positive and finite, got "
                f"{base!r} for shard {shard_id} batch {take}")
        if self.injector is None:
            batch = _new_tuple(ExecutedBatch, (
                shard_id, state.batch_seq, now, base, request_ids,
                head_enqueue, state.failures, 1.0, OUTCOME_OK, False, False))
        else:
            batch = self._judge(shard_id, now, base, request_ids,
                                head_enqueue)
        state.batch_seq += 1
        state.busy = True
        state.gen += 1  # stale any armed max-wait timer
        self.batches.append(batch)
        if self.on_dispatch is not None:
            self.on_dispatch(batch)
        heapq.heappush(self.heap, (
            now + batch.service_s, self._next_seq(),
            DONE if batch.outcome == OUTCOME_OK else FAIL, batch))

    def _judge(self, shard_id: int, now: float, base_s: float,
               request_ids: Tuple[int, ...], head_enqueue_s: float
               ) -> ExecutedBatch:
        """The attempt dispatched at ``now`` as the fault script runs it.

        The stall multiplier is evaluated at dispatch; a timeout or an
        outage opening mid-flight truncates the occupied window; an
        attempt that runs to completion consumes the transient flips
        landed since the last one (and any stuck-at cell active by its
        end), judged through the ECC decoder when one is configured.
        """
        injector = self.injector
        assert injector is not None
        state = self.shards[shard_id]
        multiplier = injector.multiplier(shard_id, now)
        service = base_s * multiplier
        end = now + service
        outcome = OUTCOME_OK
        fail_at = math.inf
        if self.retry.timeout_s < service:
            fail_at = now + self.retry.timeout_s
            outcome = OUTCOME_TIMEOUT
        next_outage = injector.next_outage_start(shard_id, now)
        if next_outage < min(end, fail_at):
            fail_at = next_outage
            outcome = OUTCOME_INTERRUPTED
        corrupted = recompute = False
        if outcome == OUTCOME_OK and injector.has_bit_flips(shard_id):
            # An attempt that completes computes on whatever the memory
            # held: the first batch to finish after a transient flip
            # lands consumes the corrupted data (even if the flip struck
            # while the device idled), and any stuck-at cell active by
            # completion corrupts every attempt.
            cursor = bisect_left(injector.transient_onsets(shard_id), end,
                                 state.flip_cursor)
            consumed = injector.transient_flips(shard_id)[
                state.flip_cursor:cursor]
            stuck = injector.stuck_active(shard_id, end)
            state.flip_cursor = cursor
            detected = False
            if self.ecc is None:
                corrupted = bool(consumed) or bool(stuck)
            elif consumed or stuck:
                # ECC sits between the memory and the batch: corrected
                # codewords leave the data clean, a decoder-flagged
                # uncorrectable fails the attempt even without ABFT, and
                # a silent miscorrection rides the sdc path unless ABFT
                # is also on.
                corrupted, detected, ecc_kinds = \
                    self.ecc.judge(consumed, stuck)
                self.fault_log.extend(
                    FaultLogEntry(kind=ecc_kind, shard_id=shard_id, t_s=now,
                                  attempt=state.failures)
                    for ecc_kind in ecc_kinds)
            if corrupted and (self.protected or detected):
                outcome = OUTCOME_CORRUPTED
            if state.last_corrupted:
                # This dispatch re-runs work a verification rejected:
                # the recompute leg of detect/heal.
                state.last_corrupted = False
                recompute = True
                self.fault_log.append(FaultLogEntry(
                    kind="recompute", shard_id=shard_id, t_s=now,
                    duration_s=service, attempt=state.failures))
        # A corrupted attempt still runs to completion -- the
        # verification that rejects it happens at the end.
        occupied = service if outcome in (OUTCOME_OK, OUTCOME_CORRUPTED) \
            else fail_at - now
        return _new_tuple(ExecutedBatch, (
            shard_id, state.batch_seq, now, occupied, request_ids,
            head_enqueue_s, state.failures, multiplier, outcome, corrupted,
            recompute))

    def _fail(self, batch: ExecutedBatch, now: float) -> None:
        """Book one failed attempt completing at ``now``.

        Counts the failure, re-enqueues the attempt's request ids at the
        head of the queue in FIFO order, and
        either gates the shard behind its next backoff or -- once the
        retry budget is exhausted -- declares it dead.
        """
        shard_id = batch.shard_id
        state = self.shards[shard_id]
        state.busy = False
        state.busy_s += batch.service_s  # wasted work still occupies
        state.failures += 1
        state.last_corrupted = batch.outcome == OUTCOME_CORRUPTED
        self.fault_log.append(FaultLogEntry(
            kind=batch.outcome, shard_id=shard_id, t_s=batch.dispatch_s,
            duration_s=batch.service_s, attempt=state.failures))
        state.queue[0:0] = batch.request_ids
        if state.failures > self.retry.max_retries:
            self._declare_dead(shard_id, now)
            return
        backoff = self.retry.backoff_s(state.failures)
        state.blocked_until = now + backoff
        self.fault_log.append(FaultLogEntry(
            kind="backoff", shard_id=shard_id, t_s=now,
            duration_s=backoff, attempt=state.failures))
        self.maybe_dispatch(shard_id, now)

    def maybe_dispatch(self, shard_id: int, now: float) -> None:
        """Dispatch, arm a timer/wake, or discover death for one shard."""
        state = self.shards[shard_id]
        if state.dead or state.busy or not state.queue:
            return
        injector = self.injector
        if injector is not None:
            up_at = injector.next_up(shard_id, now)
            if up_at > now:  # down: the covering outage ends at up_at
                if math.isinf(up_at):
                    self._declare_dead(shard_id, now)
                else:
                    self._arm_wake(shard_id, up_at)
                return
        if now < state.blocked_until:
            self._arm_wake(shard_id, state.blocked_until)
            return
        if len(state.queue) >= self.max_batch:
            self._dispatch(shard_id, now)
            return
        deadline = self.arrival_s[state.queue[0]] + self.max_wait_s
        if now >= deadline:
            self._dispatch(shard_id, now)
        elif state.timer_armed_gen != state.gen:
            state.timer_armed_gen = state.gen
            heapq.heappush(self.heap, (deadline, self._next_seq(), TIMER,
                                       (shard_id, state.gen)))

    def step(self, kind: int, payload, now: float) -> None:
        """Process one of the machine's own events."""
        if kind == DONE:
            batch = payload
            shard_id = batch.shard_id
            state = self.shards[shard_id]
            state.busy = False
            state.busy_s += batch.service_s
            state.failures = 0
            if batch.corrupted:
                # Unprotected serving: the corrupted answer ships.
                self.fault_log.append(FaultLogEntry(
                    kind="sdc", shard_id=shard_id, t_s=batch.dispatch_s,
                    duration_s=batch.service_s))
            outstanding, done_s = self.outstanding, self.done_s
            on_resolved = self.on_resolved
            for req_id in batch.request_ids:
                left = outstanding[req_id] - 1
                outstanding[req_id] = left
                if left <= 0:
                    if left < 0:
                        raise self._served_twice(req_id, shard_id)
                    # :meth:`_resolve`, inlined on the hottest path.
                    done_s[req_id] = now
                    if on_resolved is not None:
                        on_resolved(req_id, now)
            self.maybe_dispatch(shard_id, now)
        elif kind == TIMER:
            shard_id, gen = payload
            if self.shards[shard_id].gen == gen:
                self.maybe_dispatch(shard_id, now)
        elif kind == WAKE:
            self.shards[payload].wake_at = math.inf
            self.maybe_dispatch(payload, now)
        else:  # FAIL
            self._fail(payload, now)

    def check_complete(self) -> None:
        """Raise unless every registered request has resolved."""
        if len(self.done_s) < len(self.arrival_s):
            incomplete = [req_id for req_id in self.arrival_s
                          if req_id not in self.done_s]
            raise RuntimeError(f"requests never completed: {incomplete}")

    def result(self) -> ScheduleResult:
        """The run's causal record (every request must have resolved).

        Builds the :class:`RequestRecord` objects from the columns: a
        request's ``shard_done_s`` holds the completion time of each
        successful batch that carried it -- ``dispatch_s + service_s``,
        the very float the heap popped -- entered in pop order (done
        time, then dispatch order: a stable sort of the dispatch-ordered
        successes by a precomputed done-time column); ``failed_shards``
        comes from the death-drained pairs and ``corrupted_shards`` from
        successful batches that shipped corrupted data.
        """
        self.check_complete()
        shard_done: Dict[int, Dict[int, float]] = {
            req_id: {} for req_id in self.arrival_s}
        corrupted: Dict[int, Set[int]] = {}
        succeeded = [batch for batch in self.batches
                     if batch.outcome == OUTCOME_OK]
        done_times = [batch.dispatch_s + batch.service_s
                      for batch in succeeded]
        for index in sorted(range(len(succeeded)),
                            key=done_times.__getitem__):
            batch = succeeded[index]
            shard_id = batch.shard_id
            done_s = done_times[index]
            for req_id in batch.request_ids:
                shard_done[req_id][shard_id] = done_s
            if batch.corrupted:
                for req_id in batch.request_ids:
                    corrupted.setdefault(req_id, set()).add(shard_id)
        failed: Dict[int, Set[int]] = {}
        for req_id, shard_id in self.failed:
            failed.setdefault(req_id, set()).add(shard_id)
        # Positional, in field order: keyword calls cost about twice as
        # much per record.
        records = tuple(
            RequestRecord(req_id, self.arrival_s[req_id], shard_done[req_id],
                          failed.get(req_id, set()),
                          corrupted.get(req_id, set()),
                          self.n_required[req_id], self.done_s[req_id])
            for req_id in sorted(self.arrival_s))
        return ScheduleResult(
            n_shards=len(self.shards),
            policy=self.policy,
            batches=tuple(self.batches),
            records=records,
            busy_seconds=tuple(state.busy_s for state in self.shards),
            fault_log=tuple(self.fault_log),
            death_times=self.death_times,
        )


class DiscreteEventScheduler:
    """Simulate scatter-gather serving over ``n_shards`` devices.

    Parameters
    ----------
    n_shards:
        Number of shard devices (each with its own FIFO + batcher).
    policy:
        Dynamic-batching policy applied identically on every shard.
    service_time:
        ``service_time(shard_id, batch_size) -> seconds`` cost model for
        one batch on one shard's device (e.g. the amortized
        ``BatchedAPURetrieval`` model over that shard's corpus slice).
        Consulted at every dispatch, so a failover policy may update it
        mid-run (corpus takeover after a shard death).
    injector:
        Optional :class:`~repro.faults.FaultInjector`; ``None`` (the
        default) disables every fault path and reproduces the fault-free
        schedule bit-for-bit.
    retry:
        Timeout/backoff policy; the default has no timeout.
    on_death:
        Optional ``on_death(shard_id, t_s)`` hook invoked exactly once
        when a shard is declared dead, after its queue has drained.
    protected:
        ``True`` models ABFT-verified serving: a batch whose service
        window a bit flip corrupts fails with outcome ``"corrupted"``
        and is recomputed through the retry machinery.  ``False`` lets
        the corruption escape silently (``"sdc"`` log entries,
        ``corrupted_shards`` on the affected requests).  Irrelevant
        when the plan has no bit flips.
    ecc:
        Optional :class:`~repro.ecc.ECCModel`.  When set, injected
        upsets land in codewords instead of raw words: corrected
        codewords leave the batch clean (an ``"ecc_corrected"`` log
        entry is the only trace), decoder-flagged uncorrectables fail
        the attempt with outcome ``"corrupted"`` even without ABFT
        (the memory controller reports them), and beyond-capability
        miscorrections deliver silently wrong data that only ABFT
        (``protected=True``) can still catch.  ``None`` (the default)
        reproduces the unprotected raw-word behavior bit-for-bit.
    """

    def __init__(self, n_shards: int, policy: BatchPolicy,
                 service_time: Callable[[int, int], float],
                 injector: Optional[FaultInjector] = None,
                 retry: Optional[RetryPolicy] = None,
                 on_death: Optional[Callable[[int, float], None]] = None,
                 protected: bool = False,
                 ecc: Optional[ECCModel] = None):
        if not isinstance(n_shards, (int, np.integer)) \
                or isinstance(n_shards, bool) or n_shards < 1:
            raise ValueError(
                f"shards must be an integer >= 1, got {n_shards!r}")
        self.n_shards = int(n_shards)
        self.policy = policy
        self.service_time = service_time
        self.injector = injector
        self.retry = retry if retry is not None else RetryPolicy()
        self.on_death = on_death
        self.protected = bool(protected)
        self.ecc = ecc
        if injector is not None and injector.n_shards != self.n_shards:
            raise ValueError(
                f"injector covers {injector.n_shards} shard(s), "
                f"scheduler has {self.n_shards}")

    # ------------------------------------------------------------------
    @staticmethod
    def _ordered(requests: Sequence[Request]) -> List[Request]:
        """Requests in arrival order (ties by id); ids must be unique
        and the arrival times must pass
        :func:`~repro.serve.workload.validate_arrival_times`."""
        if not requests:
            raise ValueError("at least one request is required")
        ordered = sorted(requests, key=lambda r: (r.arrival_s, r.req_id))
        seen: Set[int] = set()
        for request in ordered:
            if request.req_id in seen:
                raise ValueError(f"duplicate req_id {request.req_id}")
            seen.add(request.req_id)
        validate_arrival_times([r.arrival_s for r in ordered])
        return ordered

    def run(self, requests: Sequence[Request],
            on_dispatch: Optional[Callable[[ExecutedBatch], None]] = None
            ) -> ScheduleResult:
        """Run the simulation to completion (no open requests remain),
        calling ``on_dispatch(batch)`` after every dispatch."""
        machine = ShardMachine(self.n_shards, self.policy,
                               self.service_time, self.injector, self.retry,
                               self.protected, self.ecc,
                               on_dispatch=on_dispatch,
                               on_death=self.on_death)
        ordered = self._ordered(requests)
        arrival_s = [request.arrival_s for request in ordered]
        req_ids = [request.req_id for request in ordered]
        n_arrivals = len(ordered)

        heap, shards, step = machine.heap, machine.shards, machine.step
        maybe_dispatch, register = machine.maybe_dispatch, machine.register
        death_times = machine.death_times
        live = list(range(len(shards)))
        n_dead = 0
        ptr = 0
        while ptr < n_arrivals or heap:
            if ptr < n_arrivals \
                    and (not heap or arrival_s[ptr] <= heap[0][0]):
                # Arrivals win equal-time ties: a heap holding them
                # would have popped them first, pushed before any event.
                now, req_id = arrival_s[ptr], req_ids[ptr]
                ptr += 1
                if len(death_times) != n_dead:
                    n_dead = len(death_times)
                    live = [shard_id for shard_id, state in enumerate(shards)
                            if not state.dead]
                # With no live shard left it resolves empty-handed.
                register(req_id, now, len(live))
                for shard_id in live:
                    state = shards[shard_id]
                    state.queue.append(req_id)
                    if not state.busy:
                        maybe_dispatch(shard_id, now)
                continue
            now, _, kind, payload = heapq.heappop(heap)
            step(kind, payload, now)
        return machine.result()
