"""Vectorized execution core, bit-identical to the scalar event loop.

The scalar :class:`~repro.serve.scheduler.DiscreteEventScheduler` pays
Python-level heap traffic for every arrival, timer, wake, dispatch and
completion.  This core exploits the structure of the problem instead:

* **Shard timelines are independent between shard deaths.**  Every
  admitted request fans out to all live shards, so with no injector the
  per-shard schedule is a pure function of the arrival array and the
  batching policy.  Each shard is evaluated by a closed-form scan
  (:func:`_scan_fault_free`) whose saturated stretches -- runs of
  consecutive full batches launching the instant the device frees --
  collapse into NumPy ``cumsum`` chunks.
* **One scan per service class.**  A shard's scan reads nothing but
  the arrivals and its service times for batch sizes
  ``1..max_batch``, so shards with equal service tables share one scan
  (:meth:`VectorizedScheduler._service_classes`).  Every paper corpus
  split evenly is a single class, so an 8-shard 200 GB fleet scans
  once, not eight times; the same class table tells the heap-tie
  repair below which shards share a timeline.  Static ``run()``
  reports straight from the resulting columns (:mod:`.arrays`).
* **Global event order is reconstructible.**  The scalar heap orders
  ties by push sequence; pushes happen at known times (arrivals at
  setup in request order, timers/wakes/completions at derivable
  instants).  The fault path attaches a recursive *lineage token* to
  every emitted row (see ``_Token`` below): the token encodes the full
  chain of triggering events back to an arrival, and comparing tokens
  lexicographically reproduces the heap's push-sequence tie-breaking
  exactly.  The fault-free path keeps a flatter per-batch key
  ``(dispatch, tier, push_value, shard)`` suited to a NumPy lexsort;
  tier 0 is arrival-triggered work (push value = arrival index; setup
  pushes outrank every runtime push at equal times), tier 1 is
  everything else (push value = the time the triggering event was
  pushed).
* **Fault runs couple shards only through deaths.**  With an injector
  attached, shards are scanned optimistically to completion; the
  earliest death ``T*`` is committed, survivors are re-scanned up to
  the barrier ``T*``, failover (``on_death``) re-anchors the service
  model, and the next epoch resumes the survivors -- exactly the order
  the scalar loop interleaves death and takeover.

Cross-shard heap ties are resolved exactly in both paths.  The fault
path keys every row by its lineage token directly.  The fault-free
lexsort orders by the flat key and then *repairs* the rare groups it
cannot see (:meth:`VectorizedScheduler._repair_heap_ties`): two shards
dispatching at the same float instant with equal push values -- which
genuinely happens when different service-time sums round to the same
double -- are re-ordered by walking their lineage levels
(:func:`_lineage_levels`), reproducing the scalar heap's push-sequence
recursion.  Shards of one service class scan in lockstep, so their
ties resolve to ascending shard id (the fan-out loop's order) without
any walk; a single-class fleet skips the repair entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cmp_to_key
from typing import Callable, Dict, Iterator, List, Optional, Sequence, \
    Set, Tuple

import numpy as np

from ..faults import FaultLogEntry
from ..serve.scheduler import (
    OUTCOME_OK,
    BatchPolicy,
    DiscreteEventScheduler,
    ExecutedBatch,
    FaultRules,
    RequestRecord,
    ScheduleResult,
)
from ..serve.workload import Request, validate_arrival_times
from .arrays import ArraySchedule

__all__ = ["VectorizedScheduler"]

#: Chunk size for the saturated bulk path (bounds temporary arrays).
_BULK = 4096

#: Push-key tiers (see module docstring).
_TIER_ARRIVAL = 0
_TIER_RUNTIME = 1

#: Heap-lineage token: ``(fire_time, tier, sub)`` where ``sub`` is the
#: arrival index (tier 0) or the parent event's token (tier 1).  Two
#: scalar heap events at the same fire time pop in push-sequence
#: order; pushes happen in their parents' pop order, so comparing
#: lineage tokens lexicographically (and recursively) reproduces the
#: heap's exact interleaving.  Chains bottom out at arrivals, whose
#: setup pushes (tier 0) outrank every runtime push at equal times and
#: order by index; two events with fully identical chains were pushed
#: by one shared processing event, which iterates shards in ascending
#: order -- hence the shard id that follows the token in a row key.
_Token = Tuple[float, int, object]

#: Sort key of one emitted row: (lineage token, shard id, step seq).
_RowKey = Tuple[_Token, int, int]

#: Optional per-batch capture hook: ``(shard_id, batch_size) -> table``.
CaptureFn = Callable[[int, int], object]


def _searchsorted(a: np.ndarray, v: float, side: str) -> int:
    return int(a.searchsorted(v, side))


def request_columns(requests: Sequence[Request]
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """``(arrival times, request ids)`` in the schedulers' processing
    order (arrival, then id), validated as the scalar loop validates."""
    ordered = DiscreteEventScheduler._ordered(requests)
    return (np.asarray([r.arrival_s for r in ordered], dtype=np.float64),
            np.asarray([r.req_id for r in ordered], dtype=np.int64))


# ----------------------------------------------------------------------
# Fault-free per-shard scan
# ----------------------------------------------------------------------
def _scan_fault_free(
    arrivals: np.ndarray,
    max_batch: int,
    max_wait: float,
    svc: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
           np.ndarray]:
    """One shard's full schedule: arrays of (dispatch, start, size,
    tier, push value, occupied seconds), in dispatch order.

    ``svc[m - 1]`` is the service time of a batch of ``m``, for every
    size the run can form.

    Bit-identical to the scalar loop on a single shard: dispatch times
    are produced by the same sequence of float additions, and the
    (tier, push value) pair encodes which heap event triggered each
    batch so the global merge can reproduce tie order.
    """
    n = int(arrivals.size)
    b = max_batch
    # Scalar emissions buffer + bulk chunks, concatenated at the end.
    disp_l: List[float] = []
    start_l: List[int] = []
    size_l: List[int] = []
    tier_l: List[int] = []
    val_l: List[float] = []
    chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    i = 0
    t_free = 0.0
    last_dispatch = 0.0
    has_prev = False

    def emit(at: float, start: int, size: int, tier: int, val: float
             ) -> None:
        disp_l.append(at)
        start_l.append(start)
        size_l.append(size)
        tier_l.append(tier)
        val_l.append(val)

    while i < n:
        head = float(arrivals[i])
        if has_prev and t_free >= head:
            # Device-free step with queued work: the scalar dispatches
            # here if the queue is full or the head is past deadline.
            cnt = _searchsorted(arrivals, t_free, "right") - i
            if cnt >= b or head + max_wait <= t_free:
                m = b if cnt >= b else cnt
                emit(t_free, i, m, _TIER_RUNTIME, last_dispatch)
                last_dispatch = t_free
                t_free = t_free + svc[m - 1]
                i += m
                if m == b:
                    # Saturated run: consecutive full batches, each
                    # launching the instant the previous completes.
                    s_full = svc[b - 1]
                    while n - i >= b:
                        k = min(_BULK, (n - i) // b)
                        launch = np.empty(k, dtype=np.float64)
                        launch[0] = t_free
                        if k > 1:
                            launch[1:] = s_full
                        np.cumsum(launch, out=launch)
                        fill = arrivals[i + b - 1:i + b - 1 + k * b:b]
                        ok = fill <= launch
                        mm = k if bool(ok.all()) else int(np.argmin(ok))
                        if mm == 0:
                            break
                        vals = np.empty(mm, dtype=np.float64)
                        vals[0] = last_dispatch
                        if mm > 1:
                            vals[1:] = launch[:mm - 1]
                        starts = np.arange(i, i + mm * b, b,
                                           dtype=np.int64)
                        chunks.append((launch[:mm].copy(), starts, vals))
                        # Flush position: scalar buffers stay aligned
                        # because chunks record their own offsets.
                        last_dispatch = float(launch[mm - 1])
                        t_free = last_dispatch + s_full
                        i += mm * b
                        if mm < k:
                            break
                continue
        # Idle dispatch: queue under-full when the device freed (or the
        # device idles ahead of the head arrival).
        deadline = head + max_wait
        jf = i + b - 1
        fill_t = float(arrivals[jf]) if jf < n else math.inf
        if fill_t < deadline:
            emit(fill_t, i, b, _TIER_ARRIVAL, float(jf))
            last_dispatch = fill_t
            t_free = fill_t + svc[b - 1]
            i += b
        else:
            lo = _searchsorted(arrivals, deadline, "left")
            hi = _searchsorted(arrivals, deadline, "right")
            if hi > lo and hi > i:
                # An arrival lands exactly on the deadline: it pops
                # before the timer and triggers the dispatch itself.
                j0 = max(i, lo)
                m = min(b, j0 + 1 - i)
                emit(deadline, i, m, _TIER_ARRIVAL, float(j0))
            else:
                # Max-wait timer fires; it was armed at the first
                # eligible evaluation of this idle period.
                m = min(b, hi - i)
                armed = t_free if (has_prev and t_free >= head) else head
                emit(deadline, i, m, _TIER_RUNTIME, armed)
            last_dispatch = deadline
            t_free = deadline + svc[m - 1]
            i += m
        has_prev = True

    # Assemble: scalar emissions first, then splice bulk chunks at
    # their recorded offsets.  Both are already in dispatch order per
    # shard; merge by start index (strictly increasing in both).
    disp = np.asarray(disp_l, dtype=np.float64)
    start = np.asarray(start_l, dtype=np.int64)
    size = np.asarray(size_l, dtype=np.int64)
    tier = np.asarray(tier_l, dtype=np.int64)
    val = np.asarray(val_l, dtype=np.float64)
    if chunks:
        c_disp = np.concatenate([c[0] for c in chunks])
        c_start = np.concatenate([c[1] for c in chunks])
        c_size = np.full(c_start.size, b, dtype=np.int64)
        c_tier = np.full(c_start.size, _TIER_RUNTIME, dtype=np.int64)
        c_val = np.concatenate([c[2] for c in chunks])
        order = np.argsort(
            np.concatenate([start, c_start]), kind="stable")
        disp = np.concatenate([disp, c_disp])[order]
        start = np.concatenate([start, c_start])[order]
        size = np.concatenate([size, c_size])[order]
        tier = np.concatenate([tier, c_tier])[order]
        val = np.concatenate([val, c_val])[order]
    occ = np.asarray(svc, dtype=np.float64)[size - 1]
    return disp, start, size, tier, val, occ


def _lineage_levels(
    per: Tuple[np.ndarray, ...], k: int
) -> Iterator[Tuple[float, int, float]]:
    """Yield batch ``k``'s trigger lineage as (fire time, tier, arrival
    index) levels, outermost first.

    Each level's fire time is the *push instant* of the level above it
    (a completion is pushed while the previous batch dispatches; a
    timer is pushed by the evaluation that armed it), so comparing two
    rows' level streams lexicographically reproduces the scalar heap's
    push-sequence tie-breaking: the first differing level decides, and
    fully identical streams mean both events were pushed by one shared
    arrival's fan-out loop, which runs in ascending shard order.
    """
    disp, start, _size, tier, val, occ = per
    while True:
        t = float(disp[k])
        if int(tier[k]) == _TIER_ARRIVAL:
            yield (t, _TIER_ARRIVAL, float(val[k]))
            return
        yield (t, _TIER_RUNTIME, -1.0)
        v = float(val[k])
        if k > 0:
            prev_disp = float(disp[k - 1])
            if v == prev_disp:
                # Completion event, pushed while batch k-1 dispatched.
                k -= 1
                continue
            if v == prev_disp + float(occ[k - 1]):
                # Max-wait timer armed by batch k-1's completion.
                yield (v, _TIER_RUNTIME, -1.0)
                k -= 1
                continue
        # Max-wait timer armed by the head arrival itself.
        yield (v, _TIER_ARRIVAL, float(start[k]))
        return


# ----------------------------------------------------------------------
# Fault-path per-shard scan
# ----------------------------------------------------------------------
@dataclass
class _InFlight:
    """A dispatched batch whose completion has not been processed."""

    dispatch_s: float
    occupied_s: float
    outcome: str
    corrupted: bool
    recompute: bool
    multiplier: float
    seq: int
    attempt: int
    head_enqueue_s: float
    taken: List[Tuple[int, float]]  # (request index, enqueue time)
    token: _Token  # lineage token of the event that triggered dispatch


@dataclass
class _ShardState:
    """Resumable per-shard scan state (cloneable for tentative scans)."""

    i: int = 0  # next arrival index not yet taken into a batch
    retry: List[Tuple[int, float]] = field(default_factory=list)
    busy: Optional[_InFlight] = None
    t_free: float = 0.0
    last_token: Optional[_Token] = None  # trigger of the last dispatch
    has_prev: bool = False
    failures: int = 0
    blocked_until: float = 0.0
    last_corrupted: bool = False
    flip_cursor: int = 0
    busy_s: float = 0.0
    batch_seq: int = 0
    log_seq: int = 0
    dead: bool = False
    death_s: float = math.inf
    death_token: Optional[_Token] = None  # trigger that declared death

    def clone(self) -> "_ShardState":
        twin = _ShardState(**{name: getattr(self, name)
                              for name in self.__dataclass_fields__
                              if name not in ("retry", "busy")})
        twin.retry = list(self.retry)
        twin.busy = self.busy  # _InFlight is never mutated once built
        return twin


@dataclass
class _ShardOutput:
    """Rows one shard produced during one scan (keys included)."""

    # (lineage token, shard, step seq): key; then row payload.
    batches: List[Tuple[_RowKey, int, _InFlight]] = \
        field(default_factory=list)
    logs: List[Tuple[_RowKey, FaultLogEntry]] = field(default_factory=list)
    #: (request index, time) completions.
    done: List[Tuple[int, float]] = field(default_factory=list)
    #: Request indices answered with silent corruption.
    corrupt: List[int] = field(default_factory=list)
    #: (request index, time) failover losses.
    failed: List[Tuple[int, float]] = field(default_factory=list)
    #: Request indices enqueued at the instant of death (required).
    drained: List[int] = field(default_factory=list)


class _FaultScan:
    """Replays the scalar loop's fault semantics shard by shard."""

    def __init__(self, shard: int, arrivals: np.ndarray,
                 policy: BatchPolicy, rules: FaultRules,
                 svc: Callable[[int], float]):
        self.shard = shard
        self.arrivals = arrivals
        self.n = int(arrivals.size)
        self.b = policy.max_batch
        self.wait = policy.max_wait_s
        self.rules = rules
        self.injector = rules.injector
        self.svc = svc

    # -- idle chain ----------------------------------------------------
    def _next_idle_action(
        self, st: _ShardState
    ) -> Optional[Tuple[str, float, _Token, int, int]]:
        """Next dispatch or death for an idle shard.

        Returns ``(kind, t, token, size, consumed)`` where ``token`` is
        the lineage token of the triggering event and ``consumed``
        bounds the arrival indices that have popped by it -- or ``None``
        when no work remains.  Pure: the chain re-derives identically
        after an epoch barrier.
        """
        arr, n, b = self.arrivals, self.n, self.b
        r = len(st.retry)
        if r == 0 and st.i >= n:
            return None
        if st.has_prev and (
                r > 0 or (st.i < n and float(arr[st.i]) <= st.t_free)):
            # The completion event: pushed while its batch dispatched.
            t = st.t_free
            trig: _Token = (t, _TIER_RUNTIME, st.last_token)
            consumed = max(st.i, _searchsorted(arr, t, "right"))
        else:
            t = float(arr[st.i])
            trig = (t, _TIER_ARRIVAL, float(st.i))
            consumed = st.i + 1
        timer_token: Optional[_Token] = None
        while True:
            if self.injector.is_down(self.shard, t):
                up = self.injector.next_up(self.shard, t)
                if math.isinf(up):
                    return ("die", t, trig, 0, consumed)
                trig = (up, _TIER_RUNTIME, trig)  # wake armed now
                t = up
                consumed = max(consumed, _searchsorted(arr, t, "right"))
                continue
            if t < st.blocked_until:
                # The scalar loop re-evaluates on every arrival inside
                # the backoff window, and its down-check precedes the
                # blocked-check: an arrival during a *permanent* outage
                # declares death at the arrival instant, not at the
                # backoff wake.  (A finite outage observed mid-backoff
                # only arms a wake; the chain below already converges
                # to the same dispatch time.)
                o = self.injector.next_outage_start(self.shard, t)
                ja = max(consumed, _searchsorted(arr, max(t, o), "left"))
                while ja < n and float(arr[ja]) < st.blocked_until:
                    ta = float(arr[ja])
                    if self.injector.is_down(self.shard, ta) and \
                            math.isinf(self.injector.next_up(
                                self.shard, ta)):
                        return ("die", ta,
                                (ta, _TIER_ARRIVAL, float(ja)),
                                0, ja + 1)
                    ja += 1
                trig = (st.blocked_until, _TIER_RUNTIME, trig)  # wake
                t = st.blocked_until
                consumed = max(consumed, _searchsorted(arr, t, "right"))
                continue
            qlen = r + (consumed - st.i)
            if qlen >= b:
                return ("dispatch", t, trig, b, consumed)
            head_enq = st.retry[0][1] if r else float(arr[st.i])
            deadline = head_enq + self.wait
            if t >= deadline:
                return ("dispatch", t, trig, qlen, consumed)
            if timer_token is None:
                timer_token = trig  # first eligible-not-ready evaluation
            # Next evaluation: the queue-filling arrival, an arrival
            # exactly on the deadline, or the max-wait timer itself.
            jf = st.i + b - r - 1
            fill_t = float(arr[jf]) if jf < n else math.inf
            if fill_t < deadline:
                nxt, ntrig, ncons = fill_t, \
                    (fill_t, _TIER_ARRIVAL, float(jf)), jf + 1
            else:
                lo = _searchsorted(arr, deadline, "left")
                hi = _searchsorted(arr, deadline, "right")
                j0 = max(consumed, lo)
                if j0 < hi:
                    nxt, ntrig, ncons = deadline, \
                        (deadline, _TIER_ARRIVAL, float(j0)), j0 + 1
                else:
                    nxt, ntrig, ncons = deadline, \
                        (deadline, _TIER_RUNTIME, timer_token), \
                        max(consumed,
                            _searchsorted(arr, deadline, "right"))
            # An outage opening before that evaluation is observed by
            # the first arrival inside it (that arrival arms the wake).
            o = self.injector.next_outage_start(self.shard, t)
            if o < nxt:
                ja = max(consumed, _searchsorted(arr, o, "left"))
                if ja < n and float(arr[ja]) < nxt:
                    nxt, ntrig, ncons = float(arr[ja]), \
                        (float(arr[ja]), _TIER_ARRIVAL, float(ja)), ja + 1
            t, trig, consumed = nxt, ntrig, ncons
            continue

    # -- step handlers ---------------------------------------------------
    def _log(self, st: _ShardState, out: _ShardOutput,
             trig: _Token, entry: FaultLogEntry) -> None:
        out.logs.append(((trig, self.shard, st.log_seq), entry))
        st.log_seq += 1

    def _dispatch(self, st: _ShardState, out: _ShardOutput, now: float,
                  trig: _Token, size: int) -> None:
        k_r = min(len(st.retry), size)
        k_a = size - k_r
        taken = st.retry[:k_r] + [
            (idx, float(self.arrivals[idx]))
            for idx in range(st.i, st.i + k_a)]
        head_enqueue = taken[0][1]
        st.retry = st.retry[k_r:]
        st.i += k_a
        multiplier, outcome, occupied, corrupted, recompute, entries = \
            self.rules.judge(st, self.shard, now, self.svc(size))
        for entry in entries:
            self._log(st, out, trig, entry)
        st.busy = _InFlight(
            dispatch_s=now, occupied_s=occupied, outcome=outcome,
            corrupted=corrupted, recompute=recompute,
            multiplier=multiplier, seq=st.batch_seq,
            attempt=st.failures, head_enqueue_s=head_enqueue, taken=taken,
            token=trig)
        out.batches.append(((trig, self.shard, st.batch_seq),
                            size, st.busy))
        st.batch_seq += 1
        st.last_token = trig
        st.has_prev = True
        st.t_free = now + occupied

    def _die(self, st: _ShardState, out: _ShardOutput, now: float,
             trig: _Token, consumed: int) -> None:
        st.dead = True
        st.death_s = now
        st.death_token = trig
        self._log(st, out, trig, FaultLogEntry(
            kind="dead", shard_id=self.shard, t_s=now,
            attempt=st.failures))
        for idx, _enqueue in st.retry:
            out.failed.append((idx, now))
            out.drained.append(idx)
        for idx in range(st.i, consumed):
            out.failed.append((idx, now))
            out.drained.append(idx)
        st.retry = []
        st.i = max(st.i, consumed)

    def _complete(self, st: _ShardState, out: _ShardOutput) -> None:
        batch = st.busy
        assert batch is not None
        st.busy = None
        now = batch.dispatch_s + batch.occupied_s
        st.busy_s += batch.occupied_s
        # The completion event was pushed while its batch dispatched.
        trig: _Token = (now, _TIER_RUNTIME, batch.token)
        if batch.outcome == OUTCOME_OK:
            st.failures = 0
            if batch.corrupted:
                self._log(st, out, trig, FaultLogEntry(
                    kind="sdc", shard_id=self.shard,
                    t_s=batch.dispatch_s, duration_s=batch.occupied_s))
            for idx, _enqueue in batch.taken:
                out.done.append((idx, now))
                if batch.corrupted:
                    out.corrupt.append(idx)
            return
        entries, died = self.rules.fail(
            st, self.shard, st.retry, batch.taken, batch.outcome,
            batch.dispatch_s, batch.occupied_s, now)
        for entry in entries:
            self._log(st, out, trig, entry)
        if died:
            self._die(st, out, now, trig,
                      max(st.i, _searchsorted(self.arrivals, now, "right")))

    # -- driver ----------------------------------------------------------
    def advance(self, st: _ShardState, out: _ShardOutput,
                barrier: Optional[Tuple[_Token, int]]) -> None:
        """Process every event strictly before ``barrier``.

        ``barrier`` is a ``(lineage token, shard id)`` event key --
        normally another shard's death -- or ``None`` to run to
        completion.  Keyed (not timed) barriers matter because the
        scalar loop invokes ``on_death`` *mid-event*: work at exactly
        the death time but ordered before the death (e.g. lower shard
        ids inside the same arrival's fan-out loop) dispatches with the
        pre-failover service model.
        """
        while True:
            if st.dead:
                return
            if st.busy is not None:
                done_t = st.busy.dispatch_s + st.busy.occupied_s
                if barrier is not None and \
                        ((done_t, _TIER_RUNTIME, st.busy.token),
                         self.shard) >= barrier:
                    return
                self._complete(st, out)
                continue
            action = self._next_idle_action(st)
            if action is None:
                return
            kind, t, trig, size, consumed = action
            if barrier is not None and (trig, self.shard) >= barrier:
                return
            if kind == "die":
                self._die(st, out, t, trig, consumed)
            else:
                self._dispatch(st, out, t, trig, size)


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------
class VectorizedScheduler(DiscreteEventScheduler):
    """Drop-in vectorized replacement for ``DiscreteEventScheduler``.

    Same constructor, same :meth:`run` contract, bit-identical
    :class:`~repro.serve.scheduler.ScheduleResult` (the differential
    suite in ``tests/simcore`` is the proof); plus :meth:`run_arrays`,
    the allocation-free columnar path for million-query fault-free runs.

    ``capture`` (an optional ``(shard_id, batch_size) -> table`` hook
    with per-epoch memoization semantics) replaces the scalar path's
    service-time wrapper for telemetry stage capture; captured tables
    land in :attr:`captured_tables` in global batch order.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Set before run() to capture one stage table per batch.
        self.capture: Optional[CaptureFn] = None
        #: Tables captured by the last run, in global batch order.
        self.captured_tables: List[object] = []
        self._svc_cache: Dict[Tuple[int, int], float] = {}

    # -- service memo ------------------------------------------------
    def _svc(self, shard: int, size: int) -> float:
        key = (shard, size)
        cached = self._svc_cache.get(key)
        if cached is None:
            cached = float(self.service_time(shard, size))
            if not math.isfinite(cached) or cached <= 0:
                raise ValueError(
                    f"service_time must be positive and finite, got "
                    f"{cached!r} for shard {shard} batch {size}")
            self._svc_cache[key] = cached
        return cached

    # -- public API ----------------------------------------------------
    def run(self, requests: Sequence[Request]) -> ScheduleResult:
        """Run to completion; bit-identical to the scalar scheduler."""
        arrivals, req_ids = request_columns(requests)
        self.captured_tables = []
        self._svc_cache.clear()
        if self.injector is None:
            schedule = self._run_fault_free(arrivals, req_ids)
            result = schedule.to_schedule_result()
            if self.capture is not None:
                memo: Dict[Tuple[int, int], object] = {}
                for batch in result.batches:
                    key = (batch.shard_id, batch.batch_size)
                    table = memo.get(key)
                    if table is None:
                        table = memo[key] = self.capture(*key)
                    self.captured_tables.append(table)
            return result
        return self._run_fault(arrivals, req_ids)

    def run_arrays(self, arrival_s: np.ndarray,
                   req_ids: Optional[np.ndarray] = None) -> ArraySchedule:
        """Columnar fast path over a sorted arrival-time array.

        Fault-free only (an attached injector needs the event-faithful
        path -- call :meth:`run`).  ``arrival_s`` must pass
        :func:`~repro.serve.workload.validate_arrival_times`;
        ``req_ids`` (one per arrival, in the same order) defaults to
        positional.
        """
        if self.injector is not None:
            raise ValueError(
                "run_arrays supports fault-free runs only; "
                "use run() when a FaultInjector is attached")
        arrivals = validate_arrival_times(arrival_s)
        if req_ids is None:
            req_ids = np.arange(arrivals.size, dtype=np.int64)
        self._svc_cache.clear()
        return self._run_fault_free(arrivals, req_ids)

    # -- fault-free path -------------------------------------------------
    def _service_classes(self, n: int
                         ) -> Tuple[np.ndarray, List[Tuple[float, ...]]]:
        """Shard -> service-class id, and each class's service table.

        A shard's fault-free scan is a deterministic function of the
        arrivals and its service times for the batch sizes a run can
        form (``1..min(max_batch, n)``), so shards with equal tables
        scan bit-identically: one scan per class serves all of its
        shards.  Evenly split fleets (every paper corpus) are a single
        class.
        """
        sizes = range(1, min(self.policy.max_batch, n) + 1)
        sig_to_cls: Dict[Tuple[float, ...], int] = {}
        cls = np.empty(self.n_shards, dtype=np.int64)
        for shard in range(self.n_shards):
            sig = tuple(self._svc(shard, m) for m in sizes)
            cls[shard] = sig_to_cls.setdefault(sig, len(sig_to_cls))
        return cls, list(sig_to_cls)

    def _run_fault_free(self, arrivals: np.ndarray,
                        req_ids: np.ndarray) -> ArraySchedule:
        cls, tables = self._service_classes(int(arrivals.size))
        scans = [
            _scan_fault_free(arrivals, self.policy.max_batch,
                             self.policy.max_wait_s, table)
            for table in tables]
        retrieval_done: Optional[np.ndarray] = None
        class_busy: List[float] = []
        for disp, _start, size, _tier, _val, occ in scans:
            per_req = np.repeat(disp + occ, size)
            if retrieval_done is None:
                retrieval_done = per_req
            else:
                np.maximum(retrieval_done, per_req, out=retrieval_done)
            # Sequential accumulation, matching the scalar += order.
            class_busy.append(np.cumsum(occ)[-1] if occ.size else 0.0)
        assert retrieval_done is not None
        busy = np.asarray([class_busy[c] for c in cls], dtype=np.float64)
        per_shard = [scans[c] for c in cls]
        shard_col = np.concatenate([
            np.full(per_shard[s][0].size, s, dtype=np.int64)
            for s in range(self.n_shards)])
        disp_col = np.concatenate([p[0] for p in per_shard])
        start_col = np.concatenate([p[1] for p in per_shard])
        size_col = np.concatenate([p[2] for p in per_shard])
        tier_col = np.concatenate([p[3] for p in per_shard])
        val_col = np.concatenate([p[4] for p in per_shard])
        occ_col = np.concatenate([p[5] for p in per_shard])
        order = np.lexsort((shard_col, val_col, tier_col, disp_col))
        if len(tables) > 1:
            order = self._repair_heap_ties(
                order, per_shard, cls, shard_col, disp_col, tier_col,
                val_col)
        start_sorted = start_col[order]
        return ArraySchedule(
            n_shards=self.n_shards,
            policy=self.policy,
            req_ids=req_ids,
            arrival_s=arrivals,
            retrieval_done_s=retrieval_done,
            batch_shard=shard_col[order],
            batch_dispatch_s=disp_col[order],
            batch_service_s=occ_col[order],
            batch_start=start_sorted,
            batch_size=size_col[order],
            batch_head_enqueue_s=arrivals[start_sorted],
            busy_seconds=busy,
        )

    def _repair_heap_ties(
            self, order: np.ndarray,
            per_shard: List[Tuple[np.ndarray, ...]], cls: np.ndarray,
            shard_col: np.ndarray, disp_col: np.ndarray,
            tier_col: np.ndarray, val_col: np.ndarray) -> np.ndarray:
        """Re-order cross-shard heap ties the flat lexsort cannot see.

        Two shards dispatching at the same float instant with equal
        (tier, push value) tie under the lexsort's shard-id fallback,
        but the scalar heap resolves them by push sequence, which
        recurses into the triggering events' own order.  Shards of one
        service class (``cls``, see :meth:`_service_classes`) share one
        scan, for which the shard-id fallback is already exact
        (identical lineages bottom at a shared arrival whose fan-out
        loop runs in ascending shard order), so only ties spanning
        *different* classes -- exact float collisions between unequal
        timelines -- are walked with :func:`_lineage_levels` and
        re-sorted.
        """
        d = disp_col[order]
        t = tier_col[order]
        v = val_col[order]
        same = (d[1:] == d[:-1]) & (t[1:] == t[:-1]) \
            & (v[1:] == v[:-1]) & (t[1:] == _TIER_RUNTIME)
        if not bool(same.any()):
            return order
        shard_sorted = shard_col[order]
        c = cls[shard_sorted]
        flagged = same & (c[1:] != c[:-1])
        if not bool(flagged.any()):
            return order
        # Positions of each row's batch within its own shard's arrays.
        k_col = np.concatenate([
            np.arange(p[0].size, dtype=np.int64)
            for p in per_shard])[order]
        # Expand flagged adjacent pairs to their full equal-key runs.
        bounds = np.concatenate(
            ([0], np.flatnonzero(~same) + 1, [order.size]))
        run_of = np.searchsorted(bounds, np.flatnonzero(flagged),
                                 "right") - 1
        order = order.copy()
        for run in np.unique(run_of):
            i0, i1 = int(bounds[run]), int(bounds[run + 1])
            rows = sorted(
                range(i0, i1),
                key=cmp_to_key(lambda ra, rb: self._cmp_heap_tie(
                    per_shard, cls,
                    int(shard_sorted[ra]), int(k_col[ra]),
                    int(shard_sorted[rb]), int(k_col[rb]))))
            order[i0:i1] = order[np.asarray(rows)]
        return order

    @staticmethod
    def _cmp_heap_tie(per_shard: List[Tuple[np.ndarray, ...]],
                      cls: np.ndarray, sa: int, ka: int,
                      sb: int, kb: int) -> int:
        if cls[sa] == cls[sb]:
            return -1 if sa < sb else 1
        for la, lb in zip(_lineage_levels(per_shard[sa], ka),
                          _lineage_levels(per_shard[sb], kb)):
            if la != lb:
                return -1 if la < lb else 1
        return -1 if sa < sb else 1

    # -- fault path --------------------------------------------------
    def _run_fault(self, arrivals: np.ndarray,
                   req_ids: np.ndarray) -> ScheduleResult:
        rules = self._rules()
        assert rules is not None
        states = [_ShardState() for _ in range(self.n_shards)]
        scans = [
            _FaultScan(shard, arrivals, self.policy, rules,
                       lambda m, s=shard: self._svc(s, m))
            for shard in range(self.n_shards)]
        committed = _ShardOutput()
        tables: List[Tuple[_RowKey, object]] = []
        capture_memo: Dict[Tuple[int, int], object] = {}
        drained_by_shard: Dict[int, Set[int]] = {}
        death_order: List[Tuple[float, int]] = []
        live = list(range(self.n_shards))

        def commit(out: _ShardOutput) -> None:
            committed.batches.extend(out.batches)
            committed.logs.extend(out.logs)
            committed.done.extend(out.done)
            committed.corrupt.extend(out.corrupt)
            committed.failed.extend(out.failed)
            if self.capture is not None:
                for _key, size, flight in out.batches:
                    shard = _key[1]
                    memo_key = (shard, size)
                    table = capture_memo.get(memo_key)
                    if table is None:
                        table = capture_memo[memo_key] = \
                            self.capture(shard, size)
                    # Order fixed later; pair with the batch key.
                    tables.append((_key, table))

        while live:
            self._svc_cache.clear()
            capture_memo.clear()
            # Optimistic full scans on cloned state.
            tentative: Dict[int, Tuple[_ShardState, _ShardOutput]] = {}
            dying: Optional[Tuple[Tuple[_Token, int], float]] = None
            for shard in live:
                twin = states[shard].clone()
                out = _ShardOutput()
                scans[shard].advance(twin, out, None)
                tentative[shard] = (twin, out)
                if twin.dead:
                    assert twin.death_token is not None
                    dkey = (twin.death_token, shard)
                    if dying is None or dkey < dying[0]:
                        dying = (dkey, twin.death_s)
            if dying is None:
                for shard in live:
                    states[shard], out = tentative[shard]
                    commit(out)
                break
            barrier, death_s = dying
            dead_shard = barrier[1]
            # The heap-order-earliest death is exact: nothing ordered
            # before it can be perturbed by it.  Commit the dead shard,
            # replay survivors up to the death's event key, then apply
            # failover and re-anchor -- matching the scalar loop, which
            # calls ``on_death`` mid-event.
            states[dead_shard], out = tentative[dead_shard]
            commit(out)
            drained_by_shard[dead_shard] = {
                idx for idx, _t in out.failed}
            death_order.append((death_s, dead_shard))
            for shard in live:
                if shard == dead_shard:
                    continue
                out = _ShardOutput()
                scans[shard].advance(states[shard], out, barrier)
                commit(out)
            live.remove(dead_shard)
            if self.on_death is not None:
                self.on_death(dead_shard, death_s)

        return self._materialize(arrivals, req_ids, states, committed,
                                 drained_by_shard, death_order, tables)

    def _materialize(self, arrivals: np.ndarray, req_ids: np.ndarray,
                     states: List[_ShardState], out: _ShardOutput,
                     drained_by_shard: Dict[int, Set[int]],
                     death_order: List[Tuple[float, int]],
                     tables: List[Tuple[_RowKey, object]]
                     ) -> ScheduleResult:
        n = int(arrivals.size)
        # Per-request assembly.
        shard_done: List[Dict[int, float]] = [dict() for _ in range(n)]
        failed: List[Set[int]] = [set() for _ in range(n)]
        corrupted: List[Set[int]] = [set() for _ in range(n)]
        resolve: List[float] = [-math.inf] * n
        out.batches.sort(key=lambda row: row[0])
        for key, _size, flight in out.batches:
            shard = key[1]
            if flight.outcome == OUTCOME_OK:
                done_t = flight.dispatch_s + flight.occupied_s
                for idx, _enq in flight.taken:
                    shard_done[idx][shard] = done_t
                    if done_t > resolve[idx]:
                        resolve[idx] = done_t
                    if flight.corrupted:
                        corrupted[idx].add(shard)
        for idx, t in out.failed:
            if t > resolve[idx]:
                resolve[idx] = t
        for death_t, shard in death_order:
            for idx in drained_by_shard[shard]:
                failed[idx].add(shard)
        # Fan-out width: shards live when the arrival popped.
        death_s = np.full(self.n_shards, math.inf, dtype=np.float64)
        for death_t, shard in death_order:
            death_s[shard] = death_t
        n_required = np.zeros(n, dtype=np.int64)
        for shard in range(self.n_shards):
            if math.isinf(death_s[shard]):
                n_required += 1
            else:
                n_required += arrivals < death_s[shard]
                for idx in drained_by_shard.get(shard, ()):
                    if not (arrivals[idx] < death_s[shard]):
                        n_required[idx] += 1
        records = []
        for idx in range(n):
            required = int(n_required[idx])
            records.append(RequestRecord(
                req_id=int(req_ids[idx]),
                arrival_s=float(arrivals[idx]),
                shard_done_s=shard_done[idx],
                failed_shards=failed[idx],
                corrupted_shards=corrupted[idx],
                n_required=required,
                retrieval_done_s=float(arrivals[idx]) if required == 0
                else resolve[idx],
            ))
        records.sort(key=lambda r: r.req_id)
        batches = tuple(
            ExecutedBatch(
                shard_id=key[1], seq=flight.seq,
                dispatch_s=flight.dispatch_s,
                service_s=flight.occupied_s,
                request_ids=tuple(int(req_ids[idx])
                                  for idx, _enq in flight.taken),
                head_enqueue_s=flight.head_enqueue_s,
                attempt=flight.attempt, multiplier=flight.multiplier,
                outcome=flight.outcome, corrupted=flight.corrupted,
                recompute=flight.recompute)
            for key, _size, flight in out.batches)
        out.logs.sort(key=lambda row: row[0])
        if self.capture is not None:
            tables.sort(key=lambda pair: pair[0])
            self.captured_tables = [table for _key, table in tables]
        death_times = {shard: t for t, shard in death_order}
        return ScheduleResult(
            n_shards=self.n_shards,
            policy=self.policy,
            batches=batches,
            records=tuple(records),
            busy_seconds=tuple(st.busy_s for st in states),
            fault_log=tuple(entry for _key, entry in out.logs),
            death_times=death_times,
        )
