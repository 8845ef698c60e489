"""The elastic APU device pool: the slice cost model over any attached subset.

:class:`ElasticAPUDevicePool` places the corpus over a pool of
``capacity`` device slots of which any subset may be *attached*.  The
corpus is statically split ``capacity`` ways (the same round-robin
:func:`~repro.serve.sharding.shard_chunk_counts` placement the static
simulator uses); slots that are currently detached have their chunks
redistributed over the attached slots, so the attached set always
covers the full corpus.  After one death this is exactly the static
simulator's reroute takeover; after two or more the placements can
differ (see :meth:`~ElasticAPUDevicePool.counts_for`).

Batches are priced by the one
:class:`~repro.serve.simulator.SliceCostModel` the static fleet also
uses: a batch of one on a slice of ``c`` chunks costs exactly the
single-device Table 8 latency of that slice, each extra query adds the
:class:`~repro.rag.batching.BatchedAPURetrieval` amortized increment,
and anchors and batch times are memoized per chunk count, so the event
loop pays a dict probe per dispatch no matter how often the topology
changes.

Attaching a cold device is not free: before it can serve, its corpus
slice must stream from host memory into the accelerator -- the warm-up
cost is exactly the sequential HBM DMA-in of the slice's embedding
bytes, priced by the same :func:`~repro.hbm.make_hbm2e` model the
single-device retrieval breakdown charges for its embedding load.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..core.params import APUParams, DEFAULT_PARAMS
from ..ecc.config import ECCConfig
from ..hbm.hbm2e import make_hbm2e
from ..integrity.config import IntegrityConfig
from ..obs import collector as _trace_collector
from ..rag.corpus import CorpusSpec
from ..serve.sharding import shard_chunk_counts
from ..serve.simulator import SliceCostModel
from .policy import ElasticPoolError

__all__ = ["ElasticAPUDevicePool"]


class ElasticAPUDevicePool(SliceCostModel):
    """Slot placement and warm-up costs of an elastic shard pool.

    Service, stage and protection costs are the inherited
    :class:`~repro.serve.simulator.SliceCostModel` ones, so a protected
    elastic run and a protected static run price the same slice the
    same way.  An enabled ``ecc`` config also codes the warm-up DMA
    stream, which pays the one-time encode of the slice it writes.
    """

    def __init__(self, spec: CorpusSpec, capacity: int, k: int = 5,
                 params: APUParams = DEFAULT_PARAMS,
                 integrity: Optional[IntegrityConfig] = None,
                 ecc: Optional[ECCConfig] = None):
        if capacity < 1:
            raise ElasticPoolError(
                f"pool capacity must be >= 1 device slot, got "
                f"{capacity!r}; raise the policy's max_shards")
        if capacity > spec.n_chunks:
            raise ElasticPoolError(
                f"{capacity} device slots for {spec.n_chunks} corpus "
                f"chunks would leave slots empty; lower the policy's "
                f"max_shards to at most {spec.n_chunks}")
        super().__init__(spec, k, params, integrity, ecc)
        self.capacity = capacity
        #: The static ``capacity``-way placement every topology derives
        #: from.
        self.base_counts: Tuple[int, ...] = tuple(
            shard_chunk_counts(spec.n_chunks, capacity))
        self._hbm = make_hbm2e()
        self._warmups: Dict[int, float] = {}

    def counts_for(self, attached: Sequence[int]) -> Dict[int, int]:
        """Chunk count per attached slot under this topology.

        Attached slots keep their base slice; the chunks of every
        detached slot are pooled and redistributed over the attached
        ones in slot order, earlier slots taking the remainder.  For one
        detached slot this is the static simulator's takeover; for more
        it is not, because the static takeover splits each death's
        slice on top of the survivors' enlarged slices, one death at a
        time (4 chunks on 4 slots, slot 0 then slot 2 gone: the static
        fleet holds ``{1: 3, 3: 1}``, the pool ``{1: 2, 3: 2}``).
        """
        slots = sorted(set(attached))
        if not slots:
            raise ElasticPoolError(
                "topology needs at least one attached slot; the pool "
                "cannot serve the corpus with every device detached")
        if slots[0] < 0 or slots[-1] >= self.capacity:
            raise ElasticPoolError(
                f"attached slots {slots!r} outside pool of capacity "
                f"{self.capacity}; slot ids must be in "
                f"[0, {self.capacity - 1}]")
        counts = {slot: self.base_counts[slot] for slot in slots}
        orphaned = self.spec.n_chunks - sum(counts.values())
        if orphaned > 0:
            extra = shard_chunk_counts(orphaned, len(slots))
            for slot, gained in zip(slots, extra):
                counts[slot] += gained
        return counts

    def warmup_seconds(self, chunk_count: int) -> float:
        """Corpus DMA-in cost of attaching a cold slot.

        The slice's embedding matrix streams sequentially through the
        simulated HBM2e system -- the same transfer the single-device
        breakdown charges as its embedding load, so warm-up and steady
        -state costs come from one memory model.
        """
        cost = self._warmups.get(chunk_count)
        if cost is None:
            raw_bytes = float(self.embedding_bytes(chunk_count))
            stream_bytes = raw_bytes
            previous = _trace_collector.set_collector(None)
            try:
                if self._ecc_costs is not None:
                    # The resident slice is stored coded: the warm-up
                    # stream carries the check bits and the write side
                    # pays the one-time encode of the raw payload.
                    stream_bytes *= self._ecc_costs.storage_factor
                cost = self._hbm.transfer_seconds(
                    stream_bytes, "sequential")
                if self._ecc_costs is not None:
                    cost += self._ecc_costs.encode_seconds(raw_bytes)
            finally:
                _trace_collector.set_collector(previous)
            self._warmups[chunk_count] = cost
        return cost
