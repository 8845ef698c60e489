"""Vectorized columnar core for fault-free static runs.

The scalar :class:`~repro.serve.scheduler.DiscreteEventScheduler` pays
Python-level heap traffic for every arrival, timer, wake, dispatch and
completion.  For fault-free static runs this core exploits the
structure of the problem instead and returns columns, not objects:
:meth:`VectorizedScheduler.run_arrays` yields an
:class:`~repro.simcore.arrays.ArraySchedule` that static ``run()``
reports from.  Every object-form
:class:`~repro.serve.scheduler.ScheduleResult` -- fault runs, telemetry,
monitors, traces -- comes from the inherited scalar :meth:`run`, so
event semantics and the global tie order live in exactly one place.

* **Shard timelines are independent.**  Every request fans out to all
  shards, so with no injector the per-shard schedule is a pure
  function of the arrival array and the batching policy.  Each shard
  is evaluated by a closed-form scan (:func:`_scan_fault_free`).  Its
  scalar steps read Python floats through a ``memoryview`` of the
  arrivals and search them with :mod:`bisect`; its saturated
  stretches -- runs of consecutive full batches launching the instant
  the device frees -- collapse into NumPy ``cumsum`` chunks that grow
  from 8 launches to ``_BULK``, so a short stretch costs a short
  chunk.
* **One scan per service class.**  A shard's scan reads nothing but
  the arrivals and its service times for batch sizes
  ``1..max_batch``, so shards with equal service tables share one scan
  (:meth:`VectorizedScheduler._service_classes`).  Every paper corpus
  split evenly is a single class, so an 8-shard 200 GB fleet scans
  once, not eight times.
* **No global order.**  A report reads per-request resolution times,
  per-shard busy seconds and batch sizes, none of which depend on how
  simultaneous events on different shards interleave, so the batch
  columns stay shard-major, in dispatch order within each shard.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..serve.scheduler import DiscreteEventScheduler
from ..serve.workload import Request, validate_arrival_times
from .arrays import ArraySchedule

__all__ = ["VectorizedScheduler"]

#: Largest chunk of the saturated bulk path (bounds temporary arrays).
_BULK = 4096


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
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One shard's full schedule: arrays of (dispatch, start, size,
    occupied seconds), in dispatch order.

    ``svc[m - 1]`` is the service time of a batch of ``m``, for every
    size the run can form.

    Bit-identical to the scalar loop on a single shard: dispatch times
    are produced by the same sequence of float additions.

    Scalar steps read the arrivals through a ``memoryview``, whose
    items are Python floats, and search them with :mod:`bisect` from
    the current head; converting the whole array to a list instead
    would cost O(n) on runs that spend nearly all their time in the
    bulk path.  A saturated stretch is entered only once its first
    full batch is known to be ready, and its ``cumsum`` chunks grow
    from 8 launches up to ``_BULK``, so a stretch that ends after a few
    batches builds a few launch slots, not thousands.  Any prefix of a
    sequential ``cumsum`` is the same whatever the chunk length, so
    the sizing changes no bit.
    """
    n = int(arrivals.size)
    b = max_batch
    arr = memoryview(arrivals)
    # Scalar emissions buffer + bulk chunks, concatenated at the end.
    disp_l: List[float] = []
    start_l: List[int] = []
    size_l: List[int] = []
    chunks: List[Tuple[np.ndarray, np.ndarray]] = []

    i = 0
    t_free = 0.0
    has_prev = False
    while i < n:
        head = arr[i]
        if has_prev and t_free >= head:
            # Device-free step with queued work: the scalar dispatches
            # here if the queue is full or the head is past deadline.
            cnt = bisect_right(arr, t_free, i) - i
            if cnt >= b or head + max_wait <= t_free:
                m = b if cnt >= b else cnt
                disp_l.append(t_free)
                start_l.append(i)
                size_l.append(m)
                t_free = t_free + svc[m - 1]
                i += m
                if m == b:
                    # Saturated run: consecutive full batches, each
                    # launching the instant the previous completes.
                    # The loop test is the first launch's fill check.
                    s_full = svc[b - 1]
                    k = 8
                    while n - i >= b and arr[i + b - 1] <= t_free:
                        k = min(k, (n - i) // b)
                        launch = np.empty(k, dtype=np.float64)
                        launch[0] = t_free
                        launch[1:] = s_full
                        np.cumsum(launch, out=launch)
                        fill = arrivals[i + b - 1:i + b - 1 + k * b:b]
                        ok = fill <= launch
                        mm = k if bool(ok.all()) else int(np.argmin(ok))
                        starts = np.arange(i, i + mm * b, b,
                                           dtype=np.int64)
                        # Chunks record their own offsets, so the
                        # scalar buffers need no flush here.
                        chunks.append((launch[:mm].copy(), starts))
                        # ``t_free`` is now ``launch[mm]`` (the sum is
                        # sequential), so after a partial chunk the loop
                        # test fails exactly where ``ok`` did.
                        t_free = float(launch[mm - 1]) + s_full
                        i += mm * b
                        k = min(2 * k, _BULK)
                continue
        # Idle dispatch: queue under-full when the device freed (or the
        # device idles ahead of the head arrival).
        deadline = head + max_wait
        jf = i + b - 1
        fill_t = arr[jf] if jf < n else math.inf
        if fill_t < deadline:
            m = b
            at = fill_t
        else:
            lo = bisect_left(arr, deadline, i)
            hi = bisect_right(arr, deadline, i)
            if hi > lo:
                # An arrival lands exactly on the deadline: it pops
                # before the timer and triggers the dispatch itself,
                # so the batch ends at that arrival.
                m = min(b, lo + 1 - i)
            else:
                # The max-wait timer fires on everything queued by then.
                m = min(b, hi - i)
            at = deadline
        disp_l.append(at)
        start_l.append(i)
        size_l.append(m)
        t_free = at + svc[m - 1]
        i += m
        has_prev = True

    # Assemble: scalar emissions first, then splice bulk chunks at
    # their recorded offsets.  Both are already in dispatch order per
    # shard; merge by start index (strictly increasing in both).
    disp = np.asarray(disp_l, dtype=np.float64)
    start = np.asarray(start_l, dtype=np.int64)
    size = np.asarray(size_l, dtype=np.int64)
    if chunks:
        c_disp = np.concatenate([c[0] for c in chunks])
        c_start = np.concatenate([c[1] for c in chunks])
        c_size = np.full(c_start.size, b, dtype=np.int64)
        order = np.argsort(
            np.concatenate([start, c_start]), kind="stable")
        disp = np.concatenate([disp, c_disp])[order]
        start = np.concatenate([start, c_start])[order]
        size = np.concatenate([size, c_size])[order]
    occ = np.asarray(svc, dtype=np.float64)[size - 1]
    return disp, start, size, occ


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------
class VectorizedScheduler(DiscreteEventScheduler):
    """Columnar backend for fault-free static runs.

    Same constructor as ``DiscreteEventScheduler``, whose scalar
    :meth:`run` it inherits unchanged for every object-form result;
    adds :meth:`run_arrays`, the allocation-free columnar path that
    fault-free ``run()`` reports and the million-query benchmarks use
    (``tests/simcore`` proves its columns equal the scalar loop's).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
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
        for disp, _start, size, occ in scans:
            per_req = np.repeat(disp + occ, size)
            if retrieval_done is None:
                retrieval_done = per_req
            else:
                np.maximum(retrieval_done, per_req, out=retrieval_done)
            # Sequential accumulation, matching the scalar += order.
            class_busy.append(np.cumsum(occ)[-1] if occ.size else 0.0)
        assert retrieval_done is not None
        per_shard = [scans[c] for c in cls]
        return ArraySchedule(
            n_shards=self.n_shards,
            policy=self.policy,
            req_ids=req_ids,
            arrival_s=arrivals,
            retrieval_done_s=retrieval_done,
            batch_shard=np.concatenate([
                np.full(p[0].size, s, dtype=np.int64)
                for s, p in enumerate(per_shard)]),
            batch_dispatch_s=np.concatenate([p[0] for p in per_shard]),
            batch_service_s=np.concatenate([p[3] for p in per_shard]),
            batch_start=np.concatenate([p[1] for p in per_shard]),
            batch_size=np.concatenate([p[2] for p in per_shard]),
            busy_seconds=np.asarray([class_busy[c] for c in cls],
                                    dtype=np.float64),
        )
