"""Array-native schedule record of a fault-free vectorized run.

The vectorized core keeps its hot path entirely in NumPy; materializing
one :class:`~repro.serve.scheduler.ExecutedBatch` and
:class:`~repro.serve.scheduler.RequestRecord` per event would dominate
the runtime.  :class:`ArraySchedule` is the columnar answer: per-batch
and per-request arrays plus the summary statistics reports consume.

Static ``ServingSimulator.run()`` (and ``ScaleSimulator.run()`` on a
static config) with ``engine="vectorized"`` and no fault plan reports
straight from these columns, as do the million-query ``run_arrays``
benchmarks.  ``to_schedule_result()`` materializes the object form
only where a consumer needs objects:

* ``run()`` under an active :mod:`repro.obs` trace collector (the
  per-batch and merge trace events);
* ``run_with_telemetry()`` and ``run_with_monitor()`` (span trees,
  critical paths and monitor series walk the records), which go
  through ``VectorizedScheduler.run``;
* ``VectorizedScheduler.run`` itself, the drop-in ``ScheduleResult``
  API the differential tests compare.

Only fault-free runs have a columnar form: a fault run goes through
the scalar :class:`~repro.serve.scheduler.ShardMachine` on either
engine and returns its object record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..serve.scheduler import (
    BatchPolicy,
    ExecutedBatch,
    RequestRecord,
    ScheduleResult,
)

__all__ = ["ArraySchedule"]


@dataclass(frozen=True)
class ArraySchedule:
    """Columnar result of a fault-free vectorized run.

    Batch arrays are in global dispatch order (the scalar scheduler's
    event order); request arrays are indexed by position in the sorted
    request stream (ascending ``arrival_s`` then ``req_id``).
    """

    n_shards: int
    policy: BatchPolicy
    #: Request ids, sorted to match the per-request arrays.
    req_ids: np.ndarray
    #: Arrival time per request.
    arrival_s: np.ndarray
    #: Scatter-gather resolution time per request (max over shards).
    retrieval_done_s: np.ndarray
    #: Per-batch shard id, in global event order.
    batch_shard: np.ndarray
    #: Per-batch dispatch time.
    batch_dispatch_s: np.ndarray
    #: Per-batch device-occupied seconds.
    batch_service_s: np.ndarray
    #: Per-batch first request index (into the sorted stream) and size:
    #: each batch serves ``req_ids[start:start+size]`` on its shard.
    batch_start: np.ndarray
    batch_size: np.ndarray
    #: Per-batch oldest-member enqueue time.
    batch_head_enqueue_s: np.ndarray
    #: Per-shard total occupied seconds.
    busy_seconds: np.ndarray

    @property
    def n_requests(self) -> int:
        return int(self.req_ids.size)

    @property
    def n_batches(self) -> int:
        return int(self.batch_shard.size)

    @property
    def n_events(self) -> int:
        """Simulated events: one arrival fan-out per shard per request,
        plus one dispatch and one completion per batch -- the unit the
        events/sec benchmark rates."""
        return self.n_requests * self.n_shards + 2 * self.n_batches

    @property
    def horizon_s(self) -> float:
        """Last retrieval completion (the simulated makespan)."""
        return float(self.retrieval_done_s.max())

    def latency_s(self) -> np.ndarray:
        """Arrival -> scatter-gather resolution, per request."""
        return self.retrieval_done_s - self.arrival_s

    # ------------------------------------------------------------------
    def to_schedule_result(self) -> ScheduleResult:
        """Materialize the object form (bit-identical to the scalar run).

        Linear in requests + batches; used by the differential harness
        and anywhere downstream code wants ``ScheduleResult`` semantics.
        """
        n = self.n_requests
        shard_done = [dict() for _ in range(n)]  # type: list
        order = np.argsort(self.batch_start, kind="stable")
        done = self.batch_dispatch_s + self.batch_service_s
        for shard in range(self.n_shards):
            mask = self.batch_shard[order] == shard
            for b in order[mask]:
                start = int(self.batch_start[b])
                t = float(done[b])
                for idx in range(start, start + int(self.batch_size[b])):
                    shard_done[idx][shard] = t
        records = [
            RequestRecord(
                req_id=int(self.req_ids[idx]),
                arrival_s=float(self.arrival_s[idx]),
                shard_done_s=shard_done[idx],
                n_required=self.n_shards,
                retrieval_done_s=float(self.retrieval_done_s[idx]),
            )
            for idx in range(n)
        ]
        records.sort(key=lambda r: r.req_id)
        seq = np.zeros(self.n_shards, dtype=np.int64)
        batches = []
        for b in range(self.n_batches):
            shard = int(self.batch_shard[b])
            start = int(self.batch_start[b])
            size = int(self.batch_size[b])
            batches.append(ExecutedBatch(
                shard_id=shard,
                seq=int(seq[shard]),
                dispatch_s=float(self.batch_dispatch_s[b]),
                service_s=float(self.batch_service_s[b]),
                request_ids=tuple(
                    int(r) for r in self.req_ids[start:start + size]),
                head_enqueue_s=float(self.batch_head_enqueue_s[b]),
            ))
            seq[shard] += 1
        return ScheduleResult(
            n_shards=self.n_shards,
            policy=self.policy,
            batches=tuple(batches),
            records=tuple(records),
            busy_seconds=tuple(float(s) for s in self.busy_seconds),
        )
