"""The elastic APU device pool: anchored costs for any attached subset.

:class:`ElasticAPUDevicePool` generalizes
:class:`repro.serve.simulator.ShardServiceModel` from a fixed shard
count to a pool of ``capacity`` device slots of which any subset may be
*attached*.  The corpus is statically split ``capacity`` ways (the same
round-robin :func:`~repro.serve.sharding.shard_chunk_counts` placement
the static simulator uses); slots that are currently detached have
their chunks redistributed over the attached slots, so the attached
set always covers the full corpus -- the same math as the static
simulator's reroute failover, applied in reverse when the pool grows.

Service times stay anchored at Table 8: a batch of one on a slice of
``c`` chunks costs exactly the single-device latency of that slice, and
each extra query adds the :class:`~repro.rag.batching.BatchedAPURetrieval`
amortized increment.  Anchors are memoized per chunk count and batch
service times per ``(chunk count, batch size)``, so the event loop
pays a dict probe per dispatch no matter how often the topology
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
from ..ecc.config import ECCConfig, ECCCostModel, make_codec
from ..hbm.hbm2e import make_hbm2e
from ..integrity.config import IntegrityConfig, get_cost_model
from ..obs import collector as _trace_collector
from ..rag.batching import BatchedAPURetrieval
from ..rag.corpus import CorpusSpec
from ..rag.retrieval import APURetriever, RetrievalBreakdown
from ..serve.sharding import shard_chunk_counts
from .policy import ElasticPoolError

__all__ = ["ElasticAPUDevicePool"]


class ElasticAPUDevicePool:
    """Anchored service/warm-up costs for an elastic shard pool.

    An enabled ``integrity`` config layers the ABFT protection tax on
    top of the anchored times -- the identical per-query checksum
    verification and scrub duty factor
    :class:`~repro.serve.simulator.ShardServiceModel` charges, so a
    protected elastic run and a protected static run price the same
    batch the same way.  An enabled ``ecc`` config likewise mirrors
    the static model's code-based protection tax: check-bit storage
    inflation on every anchored slice (and on the warm-up DMA stream,
    which also pays the one-time encode of the slice it writes) plus
    the per-query codec time at the memory interface.
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
        self.spec = spec
        self.capacity = capacity
        self.k = k
        self.params = params
        self.integrity = integrity if integrity is not None \
            else IntegrityConfig()
        self._costs = get_cost_model(params) if self.integrity.enabled \
            else None
        self.ecc = ecc if ecc is not None else ECCConfig()
        self._ecc_costs = (ECCCostModel(make_codec(self.ecc),
                                        params.clock_hz)
                          if self.ecc.enabled else None)
        #: The static ``capacity``-way placement every topology derives
        #: from.
        self.base_counts: Tuple[int, ...] = tuple(
            shard_chunk_counts(spec.n_chunks, capacity))
        self._retriever = APURetriever(optimized=True, params=params)
        self._batched = BatchedAPURetrieval(params)
        self._hbm = make_hbm2e()
        #: chunk count -> (single, increment, breakdown) anchor.
        self._anchors: Dict[
            int, Tuple[float, float, RetrievalBreakdown]] = {}
        self._warmups: Dict[int, float] = {}
        #: (chunk count, batch size) -> batch service seconds.
        self._services: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    def counts_for(self, attached: Sequence[int]) -> Dict[int, int]:
        """Chunk count per attached slot under this topology.

        Attached slots keep their base slice; the chunks of every
        detached slot are redistributed over the attached ones in slot
        order, earlier slots taking the remainder -- the exact
        arithmetic of the static simulator's takeover path.
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

    def slice_spec(self, chunk_count: int) -> CorpusSpec:
        """The corpus slice a slot holding ``chunk_count`` chunks scans."""
        if chunk_count < 1:
            raise ElasticPoolError(
                f"chunk_count must be >= 1, got {chunk_count!r}; an "
                f"attached slot always holds a non-empty corpus slice")
        return CorpusSpec(
            label=f"{self.spec.label}/elastic{chunk_count}",
            corpus_bytes=self.spec.corpus_bytes * chunk_count
            / max(1, self.spec.n_chunks),
            n_chunks=chunk_count,
            dim=self.spec.dim,
            bytes_per_value=self.spec.bytes_per_value,
        )

    def _anchor(self, chunk_count: int
                ) -> Tuple[float, float, RetrievalBreakdown]:
        anchor = self._anchors.get(chunk_count)
        if anchor is None:
            # Calibration replays the closed-form breakdowns; keep their
            # HBM/DMA events out of any active trace collector (they are
            # not part of the simulated serving timeline).
            previous = _trace_collector.set_collector(None)
            try:
                slice_spec = self.slice_spec(chunk_count)
                if self._ecc_costs is not None:
                    # Check-bit inflation: the anchored slice is coded.
                    factor = self._ecc_costs.storage_factor
                    slice_spec = CorpusSpec(
                        label=f"{slice_spec.label}+ecc",
                        corpus_bytes=slice_spec.corpus_bytes * factor,
                        n_chunks=slice_spec.n_chunks,
                        dim=slice_spec.dim,
                        bytes_per_value=slice_spec.bytes_per_value,
                    )
                breakdown = self._retriever.latency_breakdown(
                    slice_spec, self.k)
                pair = [self._batched.batch_latency(slice_spec, b, self.k)
                        .batch_seconds for b in (1, 2)]
            finally:
                _trace_collector.set_collector(previous)
            anchor = (breakdown.total, pair[1] - pair[0], breakdown)
            self._anchors[chunk_count] = anchor
        return anchor

    # ------------------------------------------------------------------
    def verify_seconds(self, chunk_count: int) -> float:
        """Per-query ABFT verification cost over a ``chunk_count`` slice.

        The same arithmetic as
        :meth:`~repro.serve.simulator.ShardServiceModel.verify_seconds`:
        one column-checksum check per resident MAC block plus the top-k
        result comparison, from the calibrated cost model.
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

    def ecc_seconds(self, batch_size: int) -> float:
        """Per-batch ECC codec time at the memory interface.

        The same arithmetic as
        :meth:`~repro.serve.simulator.ShardServiceModel.ecc_seconds`:
        each query pays the encode of its staged embedding plus the
        decode of its 4-byte-per-entry top-k readout.
        """
        if self._ecc_costs is None:
            return 0.0
        query_bytes = float(self.spec.dim * self.spec.bytes_per_value)
        topk_bytes = 4.0 * self.k
        per_query = (self._ecc_costs.encode_seconds(query_bytes)
                     + self._ecc_costs.decode_seconds(topk_bytes))
        return batch_size * per_query

    def service_seconds(self, chunk_count: int, batch_size: int) -> float:
        """One batch's service time on a slot holding ``chunk_count``."""
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

    def stage_seconds(self, chunk_count: int, batch_size: int
                      ) -> Tuple[Tuple[str, float], ...]:
        """Table 8 stage decomposition of one batch (fractions of the
        anchored single-query breakdown, total pinned to the batch)."""
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

    def embedding_bytes(self, chunk_count: int) -> int:
        """Resident embedding bytes of a ``chunk_count`` slice."""
        return int(chunk_count * self.spec.dim * self.spec.bytes_per_value)

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
