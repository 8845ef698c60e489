"""Deterministic discrete-event loop for sharded scatter-gather serving.

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
  shard as failed, and the loop re-anchors the survivors under the
  simulator's failover placement;
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
on a binary heap ordered by ``(time, sequence)``.  One event loop,
:class:`PoolLoop`, drives the machine over a pool of device slots,
merging sorted arrivals with the heap (an arrival goes first on a time
tie, as if pushed before every other event).  A static fleet runs it
pinned to its ``n_shards`` devices; the elastic
:class:`~repro.scale.simulator.ScaleSimulator` drives it with
admission, controller ticks, warm-ups and drains.  A shard death
re-anchors the surviving slots through one placement rule.  The
sequence number makes simultaneous events process in insertion order,
so the whole simulation is bit-deterministic for a fixed request
stream, fault plan, and cost model -- and with no injector the fault
paths are never entered.
A request's retrieval completes when every shard it was fanned out to
has either finished or been declared dead; downstream costs (top-k
merge, generator prefill) are applied by the simulator on top of the
scheduler output.

Most dispatches of a chaos run fall where the script does nothing.
Each shard keeps a **calm window** ``[calm_lo, calm_hi)``, refreshed
after every judged dispatch from
:meth:`~repro.faults.FaultInjector.calm_until` and clamped to the
shard's next unconsumed transient flip: inside it the shard is up, its
multiplier is exactly one and no stuck-at cell is active.  A batch that
starts and ends strictly inside the window, with no recompute due and
no timeout below its service time, is exactly the fault-free batch, so
it is built without asking the injector; ``maybe_dispatch`` skips the
availability query there too.

A finished loop holds data, not callbacks.  The drivers' closures and
the machine's hooks reach back to the loop, so :meth:`PoolLoop.run`
drops them when it ends, by return or by exception; what is left (the
machine's columns, the batches, the anchor log, the cost model) is
freed by reference counting once its last reader lets go.  That is what
lets the simulators pause the cyclic garbage collector for a whole
action (:func:`~repro.serve.record.collector_paused`).
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple,
                    Optional, Sequence, Set, Tuple)

import numpy as np

from ..faults.plan import FaultLogEntry

if TYPE_CHECKING:
    from ..ecc.model import ECCModel
    from ..faults.injector import FaultInjector

__all__ = [
    "BatchPolicy",
    "RetryPolicy",
    "ExecutedBatch",
    "RequestRecord",
    "ScheduleResult",
    "ShardMachine",
    "PoolLoop",
]

#: Builds a NamedTuple from all of its fields without the generated
#: ``__new__`` frame: ``_new_tuple(ExecutedBatch, (every field))``.
_new_tuple = tuple.__new__
#: Reads a shard state's ``busy`` flag.
_busy = attrgetter("busy")

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
                 "dead", "last_corrupted", "flip_cursor", "calm_lo",
                 "calm_hi")

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
        #: Calm window ``[calm_lo, calm_hi)`` from the last judged
        #: dispatch: up, multiplier one, no stuck-at cell, and no
        #: unconsumed transient flip (empty until the first one).
        self.calm_lo = 0.0
        self.calm_hi = 0.0


class ShardMachine(_FaultTallies):
    """Heap-driven per-shard machine under the serving event loop.

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
    with none, no fault path is ever entered.  A dispatch inside the
    shard's calm window (see the module docstring) skips the judge: the
    judge would return the same fault-free batch.

    Hooks:

    * ``service_time(shard_id, batch_size) -> seconds`` at every
      dispatch (so a failover may reprice it mid-run), checked positive
      and finite;
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
        if self.injector is None or (
                state.calm_lo <= now and now + base < state.calm_hi
                and not state.last_corrupted
                and not self.retry.timeout_s < base):
            # Fault-free, or inside the calm window, where the judge
            # would return this very batch.
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
        # Refresh the calm window, clamped to the next unconsumed flip.
        calm_hi = injector.calm_until(shard_id, now)
        onsets = injector.transient_onsets(shard_id)
        if state.flip_cursor < len(onsets) \
                and onsets[state.flip_cursor] < calm_hi:
            calm_hi = onsets[state.flip_cursor]
        state.calm_lo = now
        state.calm_hi = calm_hi
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
        if injector is not None \
                and not state.calm_lo <= now < state.calm_hi:
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


class _Slot:
    """Pool lifecycle of one device slot (queues live in the
    :class:`ShardMachine`)."""

    __slots__ = ("chunk_count", "service_s", "serving", "warming",
                 "draining")

    def __init__(self) -> None:
        #: Chunks this device scans per query (frozen while draining),
        #: and the batch service time per batch size on that slice
        #: (``service_s[b - 1]``), both set at every re-anchor.
        self.chunk_count = 0
        self.service_s: Tuple[float, ...] = ()
        self.serving = False
        self.warming = False
        self.draining = False


class PoolLoop:
    """The serving event loop over a pool of device slots.

    Arrivals fan out to every *serving* slot's queue in the
    :class:`ShardMachine`.  They are pointer-merged against the
    machine's heap, taken first at equal times (exactly as if pushed
    before every other event), and while every serving slot is busy
    they are admitted in bulk: each admission only appends to queues,
    since every dispatch attempt would be a busy no-op.  The machine's
    own events go to :meth:`ShardMachine.step`; a driver's kind
    ``FIRST_DRIVER_KIND + i`` goes to its handler ``drivers[i](payload,
    t_s)``.

    A static fleet runs the loop *pinned*: every slot serves from the
    start, nothing drives it, and ``admit`` is the default that
    registers every arrival.  The elastic
    :class:`~repro.scale.simulator.ScaleSimulator` drives the same loop
    with admission control, controller ticks, warm-ups and drains.

    Batches are priced per slot.  With a cost ``model`` (a
    :class:`~repro.serve.simulator.SliceCostModel`) and a placement
    ``place(serving slots) -> {slot: chunk count}``, every change of the
    serving set goes through :meth:`regroup`, which re-anchors each
    serving slot on its slice and logs ``(batch index, slot, chunk
    count)`` in :attr:`anchors`.  No hook runs per dispatch: after the
    run :meth:`dispatch_counts` replays each batch's slice from the
    log, and from it its stage table and resident bytes.  A synthetic
    ``service_time(slot, batch size)`` replaces both model and
    placement.

    A death drops the slot from the serving set and regroups the
    survivors before the driver's ``on_death(slot, t_s, was_serving)``
    runs.  ``admit(req_id, t_s, pressure) -> bool`` registers an arrival
    (through :meth:`ShardMachine.register`) or refuses it; ``pressure``
    is the queued sub-queries per serving slot-batch, and ``-inf`` for
    an arrival with no serving slot, which must register with none to
    ask.  ``drained(slot, t_s)`` fires when a draining slot's last batch
    completes.
    """

    def __init__(self, n_slots: int, policy: BatchPolicy,
                 service_time: Optional[Callable[[int, int], float]] = None,
                 *, model: Any = None,
                 place: Optional[Callable[[List[int]], Dict[int, int]]] = None,
                 n_serving: Optional[int] = None,
                 injector: Optional[FaultInjector] = None,
                 retry: Optional[RetryPolicy] = None,
                 protected: bool = False,
                 ecc: Optional[ECCModel] = None,
                 on_resolved: Optional[Callable[[int, float], None]] = None,
                 on_death: Optional[Callable[[int, float, bool], None]] = None,
                 admit: Optional[Callable[[int, float, float], bool]] = None,
                 drivers: Sequence[Callable[[Any, float], None]] = (),
                 drained: Optional[Callable[[int, float], None]] = None):
        if not isinstance(n_slots, (int, np.integer)) \
                or isinstance(n_slots, bool) or n_slots < 1:
            raise ValueError(
                f"shards must be an integer >= 1, got {n_slots!r}")
        if injector is not None and injector.n_shards != n_slots:
            raise ValueError(
                f"injector covers {injector.n_shards} shard(s), "
                f"loop has {n_slots}")
        if (service_time is not None) \
                == (model is not None and place is not None):
            raise ValueError(
                "price batches with service_time or with model and "
                "place, not both")
        self._model = model
        self._place = place
        self._on_death = on_death
        self.slots = [_Slot() for _ in range(n_slots)]
        #: Serving slots, ascending; drivers edit it in place and then
        #: call :meth:`regroup`.
        self.serving: List[int] = list(range(
            n_slots if n_serving is None else n_serving))
        for j in self.serving:
            self.slots[j].serving = True
        #: ``(batch index, slot, chunk count)`` per re-anchor, in event
        #: order.
        self.anchors: List[Tuple[int, int, int]] = []
        #: The serving slots' shard states and queues, in ``serving``
        #: order, edited in place by :meth:`regroup`.
        self.states: List[_ShardState] = []
        self.queues: List[List[int]] = []
        self._counts: Optional[List[int]] = None
        #: Chunk count -> its batch service times by size (pricing is a
        #: pure function of the count).
        self._prices: Dict[int, Tuple[float, ...]] = {}
        if service_time is None:
            slots = self.slots

            def service_time(j: int, take: int) -> float:
                return slots[j].service_s[take - 1]

        self.machine = ShardMachine(
            n_slots, policy, service_time, injector,
            retry if retry is not None else RetryPolicy(), protected, ecc,
            on_resolved=on_resolved, on_death=self._death)
        self.regroup()
        self.arrive = self._arrive_closure(admit)
        self._drivers = tuple(drivers)
        self._drained = drained

    def regroup(self) -> None:
        """Re-anchor every serving slot on the current serving set, and
        refresh :attr:`states` and :attr:`queues`."""
        serving, machine = self.serving, self.machine
        if self._place is not None and serving:
            slots, prices = self.slots, self._prices
            index = len(machine.batches)
            for j, count in self._place(serving).items():
                service_s = prices.get(count)
                if service_s is None:
                    price = self._model.service_seconds
                    service_s = prices[count] = tuple(
                        price(count, b)
                        for b in range(1, machine.max_batch + 1))
                slot = slots[j]
                slot.chunk_count = count
                slot.service_s = service_s
                self.anchors.append((index, j, count))
        shards = machine.shards
        self.states[:] = [shards[j] for j in serving]
        self.queues[:] = [state.queue for state in self.states]

    def _death(self, slot_id: int, now: float) -> None:
        slot = self.slots[slot_id]
        was_serving = slot.serving
        slot.serving = slot.draining = False
        if was_serving:
            self.serving.remove(slot_id)
            # Survivors take over the dead slice (or not, as the
            # placement rules).
            self.regroup()
        if self._on_death is not None:
            self._on_death(slot_id, now, was_serving)

    def _arrive_closure(self, admit: Optional[Callable[[int, float, float],
                                                       bool]]
                        ) -> Callable[[int, float], None]:
        serving, queues = self.serving, self.queues
        machine = self.machine
        shards, register = machine.shards, machine.register
        maybe_dispatch, max_batch = machine.maybe_dispatch, machine.max_batch
        if admit is None:
            def admit(req_id: int, now: float, pressure: float) -> bool:
                register(req_id, now, len(serving))
                return True
        self._admit = admit

        def arrive(req_id: int, now: float) -> None:
            """Admit one arrival and fan it out to the serving slots."""
            if not serving:
                # Every device is dead, draining or still warming: the
                # request resolves empty-handed.
                admit(req_id, now, -math.inf)
                return
            if admit(req_id, now, sum(map(len, queues))
                     / (len(serving) * max_batch)):
                # Snapshot: a dispatch can declare the slot dead
                # (permanent outage discovered at dispatch), and the
                # death edits ``serving``.
                for shard_id in list(serving):
                    state = shards[shard_id]
                    state.queue.append(req_id)
                    if not state.busy:
                        maybe_dispatch(shard_id, now)

        return arrive

    def run(self, arrival_s: Sequence[float],
            req_ids: Optional[Sequence[int]] = None) -> ShardMachine:
        """Run until every arrival is taken and the heap is empty.

        ``arrival_s`` are sorted arrival times (Python floats, or an
        array converted here), ``req_ids`` one id per arrival
        (positional when ``None``).  Returns the machine.  A loop runs
        once: on the way out it drops its callbacks and the machine's
        hooks, keeping only the run's data.
        """
        if isinstance(arrival_s, np.ndarray):
            arrival_s = arrival_s.tolist()
        if req_ids is None:
            req_ids = list(range(len(arrival_s)))
        elif isinstance(req_ids, np.ndarray):
            req_ids = req_ids.tolist()
        machine = self.machine
        heap, step = machine.heap, machine.step
        shards, slots = machine.shards, self.slots
        serving, states, queues = self.serving, self.states, self.queues
        max_batch = machine.max_batch
        admit, arrive = self._admit, self.arrive
        drivers, drained = self._drivers, self._drained
        heappop = heapq.heappop
        n_arrivals = len(arrival_s)
        ptr = 0
        try:
            while heap or ptr < n_arrivals:
                if ptr < n_arrivals \
                        and (not heap or arrival_s[ptr] <= heap[0][0]):
                    # Taking arrivals on ``<=`` replays a heap where they
                    # were pushed before every other event.
                    if serving and all(map(_busy, states)):
                        # Bulk admission: the queue-pressure test is the
                        # whole decision.  The incremental counter
                        # reproduces the integer sum -- hence the float
                        # division -- that ``arrive`` computes per arrival.
                        horizon = heap[0][0] if heap else math.inf
                        queued = sum(map(len, queues))
                        width = len(serving)
                        denom = width * max_batch
                        while ptr < n_arrivals and arrival_s[ptr] <= horizon:
                            now = arrival_s[ptr]
                            req_id = req_ids[ptr]
                            ptr += 1
                            if admit(req_id, now, queued / denom):
                                for queue in queues:
                                    queue.append(req_id)
                                queued += width
                    else:
                        now = arrival_s[ptr]
                        req_id = req_ids[ptr]
                        ptr += 1
                        arrive(req_id, now)
                    continue
                now, _, kind, payload = heappop(heap)
                if kind < FIRST_DRIVER_KIND:
                    step(kind, payload, now)
                    if kind == DONE:
                        j = payload.shard_id
                        if slots[j].draining and not shards[j].queue \
                                and not shards[j].busy:
                            drained(j, now)
                else:
                    drivers[kind - FIRST_DRIVER_KIND](payload, now)
        finally:
            # Hooks that reach back to the loop would leave the whole
            # run as cyclic garbage (see the module docstring).
            self._drivers = ()
            self._drained = self._on_death = None
            del self._admit, self.arrive
            machine.on_resolved = machine.on_death = None
        return machine

    def dispatch_counts(self) -> List[int]:
        """Each executed batch's slice chunk count at its dispatch.

        Replayed from :attr:`anchors`: an entry applies to every batch
        dispatched from its index on, until the slot's next entry (a
        draining or dead slot keeps its last one).
        """
        if self._counts is None:
            current: Dict[int, int] = {}
            counts: List[int] = []
            pending = iter(self.anchors)
            entry = next(pending, None)
            for index, batch in enumerate(self.machine.batches):
                while entry is not None and entry[0] <= index:
                    current[entry[1]] = entry[2]
                    entry = next(pending, None)
                counts.append(current[batch.shard_id])
            self._counts = counts
        return self._counts

    def stage_tables(self) -> List[Any]:
        """One stage table per executed batch, priced on the slice its
        slot held at dispatch."""
        table = self._model.stage_table
        return [table(batch.shard_id, count, len(batch.request_ids))
                for batch, count in zip(self.machine.batches,
                                        self.dispatch_counts())]

    def materialize(self) -> Tuple[ScheduleResult, List[int]]:
        """The run's :class:`ScheduleResult` and each batch's resident
        slice bytes at dispatch (a run record's ``materialize``)."""
        counts = self.dispatch_counts()
        nbytes = {count: self._model.embedding_bytes(count)
                  for count in set(counts)}
        return self.machine.result(), [nbytes[count] for count in counts]
