"""Array-native schedule record of a fault-free vectorized run.

The vectorized core keeps its hot path entirely in NumPy; even at
typed-tuple cost, one :class:`~repro.serve.scheduler.ExecutedBatch`
per batch plus one :class:`~repro.serve.scheduler.RequestRecord` per
request would dominate the runtime.  :class:`ArraySchedule` is the columnar answer: per-batch
and per-request arrays plus the summary statistics reports consume.

Static ``ServingSimulator.run()`` (and ``ScaleSimulator.run()`` on a
static config) with ``engine="vectorized"`` and no fault plan reports
straight from these columns, as do the million-query ``run_arrays``
benchmarks.  The columns carry no global event order -- nothing a
report reads depends on how simultaneous events on different shards
interleave -- so there is no object form here: a consumer that needs
a :class:`~repro.serve.scheduler.ScheduleResult` (an active
:mod:`repro.obs` trace collector, telemetry, the monitor) gets it from
the scalar event loop on the same requests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..serve.scheduler import BatchPolicy

__all__ = ["ArraySchedule"]


@dataclass(frozen=True)
class ArraySchedule:
    """Columnar result of a fault-free vectorized run.

    Batch arrays are shard-major, in dispatch order within each shard;
    request arrays are indexed by position in the sorted request stream
    (ascending ``arrival_s`` then ``req_id``).
    """

    n_shards: int
    policy: BatchPolicy
    #: Request ids, sorted to match the per-request arrays.
    req_ids: np.ndarray
    #: Arrival time per request.
    arrival_s: np.ndarray
    #: Scatter-gather resolution time per request (max over shards).
    retrieval_done_s: np.ndarray
    #: Per-batch shard id (ascending: the columns are shard-major).
    batch_shard: np.ndarray
    #: Per-batch dispatch time.
    batch_dispatch_s: np.ndarray
    #: Per-batch device-occupied seconds.
    batch_service_s: np.ndarray
    #: Per-batch first request index (into the sorted stream) and size:
    #: each batch serves ``req_ids[start:start+size]`` on its shard.
    batch_start: np.ndarray
    batch_size: np.ndarray
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
