"""ENNS retrieval engines for RAG (paper Section 5.3, Table 8).

Three retrievers share one interface:

* :class:`APURetriever` -- the compute-in-SRAM engine.  Functional runs
  execute the full pipeline (query broadcast, element-wise products,
  subgroup-reduction distances, on-device top-k) on the simulator and
  are validated against the exact FAISS-like reference.  Paper-scale
  latency comes from a stage model assembled from the same cost tables,
  with the embedding stream served by the simulated HBM2e.
* :class:`CPURetriever` -- FAISS ``IndexFlatIP`` functionally, the
  calibrated Xeon model for latency.
* :class:`GPURetriever` -- exact NumPy search functionally, the A6000
  model for latency.

The stage breakdown mirrors Table 8: Load Embedding, Load Query, Calc
Distance, Top-K Aggregation, Return Top-K.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from ..baselines.gpu import GPUModel
from ..core.params import APUParams, DEFAULT_PARAMS
from ..core.reduction_model import simulated_sg_add_cycles
from ..hbm.dram import DRAMModel
from ..hbm.hbm2e import make_hbm2e
from .corpus import CorpusSpec, MiniCorpus
from .topk import apu_topk, topk_aggregation_cycles

if TYPE_CHECKING:
    from ..apu.device import APUDevice
    from ..baselines.cpu import CPUModel

__all__ = [
    "RetrievalBreakdown",
    "APURetriever",
    "CPURetriever",
    "GPURetriever",
]


@dataclass(frozen=True)
class RetrievalBreakdown:
    """Per-stage retrieval latency in seconds (one Table 8 column)."""

    load_embedding: float
    load_query: float
    calc_distance: float
    topk_aggregation: float
    return_topk: float

    @property
    def total(self) -> float:
        """End-to-end retrieval latency in seconds."""
        return (self.load_embedding + self.load_query + self.calc_distance
                + self.topk_aggregation + self.return_topk)

    def as_ms(self) -> Dict[str, float]:
        """The breakdown in milliseconds, keyed like Table 8 rows."""
        return {
            "load_embedding": self.load_embedding * 1e3,
            "load_query": self.load_query * 1e3,
            "calc_distance": self.calc_distance * 1e3,
            "topk_aggregation": self.topk_aggregation * 1e3,
            "return_topk": self.return_topk * 1e3,
            "total": self.total * 1e3,
        }


class APURetriever:
    """Exact nearest-neighbor retrieval on the compute-in-SRAM device.

    Parameters
    ----------
    optimized:
        ``True`` applies communication-aware reduction mapping, DMA
        coalescing, and the broadcast-friendly query layout; ``False``
        is the unoptimized compute-in-SRAM baseline of Table 8.
    """

    #: Chunk embeddings are padded to this group size so the reduction
    #: ratio is a power of two (384 -> 512).
    GROUP = 512

    def __init__(self, optimized: bool = True,
                 params: APUParams = DEFAULT_PARAMS,
                 hbm: Optional[DRAMModel] = None):
        self.optimized = optimized
        self.params = params
        self.hbm = hbm or make_hbm2e()

    # ------------------------------------------------------------------
    # Functional path
    # ------------------------------------------------------------------
    def retrieve(self, corpus: MiniCorpus, query: np.ndarray,
                 k: int = 5, device: Optional[APUDevice] = None) -> List[int]:
        """Run the retrieval pipeline on the simulator; exact top-k.

        The functional kernel mirrors the latency model's structure:
        the optimized retriever uses the dim-major temporal mapping
        (communication-aware reduction over the dimension axis), the
        unoptimized one the chunk-major spatial mapping with intra-VR
        subgroup reductions.
        """
        return [index for index, _
                in self.retrieve_with_scores(corpus, query, k, device)]

    def retrieve_with_scores(self, corpus: MiniCorpus, query: np.ndarray,
                             k: int = 5,
                             device: Optional[APUDevice] = None,
                             ) -> List[tuple]:
        """Exact top-k as ``(chunk_index, score)`` pairs, best first.

        ``device`` lets callers (the sharded retriever, device pools)
        run the kernel on a particular simulated APU; by default a fresh
        device is created per query.
        """
        if device is None:
            # Serving prices batches with the latency model below and
            # never runs the functional simulator, so it loads here.
            from ..apu.device import APUDevice

            device = APUDevice(self.params)
        if self.optimized:
            score_vrs, valid_counts = self._distances_dim_major(
                device, corpus, query)
        else:
            score_vrs, valid_counts = self._distances_chunk_major(
                device, corpus, query)
        return apu_topk(device, score_vrs, k, valid_counts)

    def _distances_dim_major(self, device: APUDevice, corpus: MiniCorpus,
                             query: np.ndarray):
        """Temporal mapping: one VR per (block, dim), inter-VR MACs.

        Scores land directly at per-chunk positions -- contiguous, no
        intra-VR reduction at all (the point of opt1).
        """
        core = device.core
        g = core.gvml
        vlen = self.params.vr_length
        n_blocks = -(-corpus.n_chunks // vlen)
        if n_blocks > 8:
            raise ValueError("mini corpus too large for the functional demo")
        score_vrs: List[int] = []
        valid_counts: List[int] = []
        for block in range(n_blocks):
            lo = block * vlen
            hi = min(lo + vlen, corpus.n_chunks)
            acc = 4 + block
            g.cpy_imm_16(acc, 0)
            for d in range(corpus.dim):
                column = np.zeros(vlen, dtype=np.uint16)
                column[: hi - lo] = corpus.embeddings[lo:hi, d]
                core.l1.store(40, column)
                g.load_16(0, 40)                  # embedding dim-slice
                g.cpy_imm_16(1, int(query[d]))    # scalar broadcast
                g.mul_u16(2, 0, 1)
                g.add_u16(acc, acc, 2)            # temporal reduction
            score_vrs.append(acc)
            valid_counts.append(hi - lo)
        return score_vrs, valid_counts

    def _distances_chunk_major(self, device: APUDevice, corpus: MiniCorpus,
                               query: np.ndarray):
        """Spatial mapping: chunk groups reduced inside the VR."""
        core = device.core
        g = core.gvml
        vlen = self.params.vr_length
        group = self._functional_group(corpus.dim)
        chunks_per_vr = vlen // group

        # The query tiles every chunk group.
        padded_query = np.zeros(group, dtype=np.uint16)
        padded_query[: corpus.dim] = query
        core.l1.store(40, np.tile(padded_query, chunks_per_vr))
        g.load_16(1, 40)

        score_vrs: List[int] = []
        valid_counts: List[int] = []
        n_vrs = -(-corpus.n_chunks // chunks_per_vr)
        if n_vrs > 8:
            raise ValueError("mini corpus too large for the functional demo")
        for tile in range(n_vrs):
            lo = tile * chunks_per_vr
            hi = min(lo + chunks_per_vr, corpus.n_chunks)
            block = np.zeros((chunks_per_vr, group), dtype=np.uint16)
            block[: hi - lo, : corpus.dim] = corpus.embeddings[lo:hi]
            core.l1.store(tile, block.reshape(-1))
            g.load_16(0, tile)
            g.mul_u16(2, 0, 1)
            g.add_subgrp_s16(3, 2, group, 1)      # intra-VR reduction
            # Scattered per-group scores compacted to a score VR head.
            scores = core.vr_read(3)[:: group]
            compacted = np.zeros(vlen, dtype=np.uint16)
            compacted[: hi - lo] = scores[: hi - lo]
            core.vr_write(4 + tile, compacted)
            g.shift_e4(4 + tile, 0)  # charge the compaction pass
            score_vrs.append(4 + tile)
            valid_counts.append(hi - lo)
        return score_vrs, valid_counts

    @classmethod
    def _functional_group(cls, dim: int) -> int:
        group = 1 << max(0, (dim - 1)).bit_length()
        return group

    def retrieve_multicore(self, corpus: MiniCorpus, query: np.ndarray,
                           k: int = 5) -> List[int]:
        """Shard the corpus across all four cores and merge on the CP.

        Each core runs the single-core pipeline over its shard; the
        control processor merges the per-core top-k candidates (scores
        descending, global index ascending on ties) -- the device-level
        parallelism the paper's multi-core latency programs assume.
        """
        from ..apu.device import APUDevice

        device = APUDevice(self.params)
        cores = device.cores
        shard = -(-corpus.n_chunks // len(cores))
        candidates: List[tuple] = []
        for core_id, core in enumerate(cores):
            lo = core_id * shard
            hi = min(lo + shard, corpus.n_chunks)
            if lo >= hi:
                break
            sub = MiniCorpus.from_embeddings(corpus.embeddings[lo:hi],
                                             seed=corpus.seed)
            shard_retriever = APURetriever(self.optimized, self.params)
            local = shard_retriever.retrieve(sub, query, min(k, hi - lo))
            scores = sub.scores(query)
            candidates.extend(
                (int(scores[idx]), lo + idx) for idx in local
            )
        candidates.sort(key=lambda pair: (-pair[0], pair[1]))
        return [index for _, index in candidates[:k]]

    #: On-chip L4 -> L1 vector DMA with the HBM2e backing store, cycles
    #: per 64 KB vector.  With HBM the engine no longer waits on the
    #: 23.8 GB/s DDR: a coalesced sequential stream sustains ~8.7 GB/s
    #: per engine, while the unoptimized chunked stream (512-byte
    #: descriptors, no alignment) stays near 2.1 GB/s.  Calibrated
    #: against the Table 8 distance-stage latencies.
    HBM_VECTOR_DMA_OPT = 3745.0
    HBM_VECTOR_DMA_NOOPT = 15400.0
    #: Fixed host/CP overhead of returning results over PCIe, cycles.
    RETURN_OVERHEAD_CYCLES = 5000.0

    # ------------------------------------------------------------------
    # Paper-scale latency (Table 8)
    # ------------------------------------------------------------------
    def latency_breakdown(self, corpus: CorpusSpec, k: int = 5) -> RetrievalBreakdown:
        """Stage latencies at paper scale; HBM feeds the embedding load."""
        params = self.params
        cyc = 1.0 / params.clock_hz
        cores = params.num_cores
        pattern = "sequential" if self.optimized else "chunked"
        load_embedding = self.hbm.transfer_seconds(
            corpus.embedding_bytes, pattern
        )
        mv, comp = params.movement, params.compute
        issue = params.effects.vcu_issue_cycles

        if self.optimized:
            # Broadcast-friendly query: the CP stages one immediate per
            # dimension through PIO so each k-step broadcast is a cheap
            # cpy_imm during the distance sweep (Table 8: the optimized
            # layout pays more here and wins it back below).
            load_query = (
                mv.dma_l4_l2(corpus.dim * 2) + mv.dma_l2_l1
                + mv.pio_ld(corpus.dim)
                + (mv.cpy_imm + comp.add_u16 + comp.and_16)
                + mv.lookup(corpus.dim)
            ) * cyc
            # Dim-major layout: the reduction over dimensions runs
            # temporally as inter-VR MACs (communication-aware mapping).
            blocks = -(-corpus.n_chunks // params.vr_length)
            vectors = blocks * corpus.dim  # one VR per (block, dim)
            per_vector = (
                self.HBM_VECTOR_DMA_OPT + mv.vr_load + mv.cpy_imm
                + comp.mul_f16 + comp.add_s16 + 4 * issue
            )
            calc_distance = -(-vectors // cores) * per_vector * cyc
        else:
            # Query parked in one VR; segments re-broadcast per tile.
            load_query = (
                mv.dma_l4_l2(corpus.dim * 2) + mv.dma_l2_l1
                + mv.vr_load + 2 * mv.cpy + mv.pio_ld(48)
            ) * cyc
            # Chunk-major layout: every tile needs an intra-VR subgroup
            # reduction and its scattered outputs leave over PIO.
            chunks_per_vr = params.vr_length // self.GROUP  # 64
            tiles = -(-corpus.n_chunks // chunks_per_vr)
            reduction = simulated_sg_add_cycles(self.GROUP, 1, params)
            per_tile = (
                self.HBM_VECTOR_DMA_NOOPT + mv.vr_load + comp.mul_f16
                + reduction + mv.pio_st(chunks_per_vr) + mv.pio_ld(32)
                + 4 * issue
            )
            calc_distance = -(-tiles // cores) * per_tile * cyc

        topk = topk_aggregation_cycles(corpus.n_chunks, k, params) * cyc
        return_topk = (
            k * (comp.count_m + 2 * mv.pio_st_per_elem)
            + self.RETURN_OVERHEAD_CYCLES
        ) * cyc
        return RetrievalBreakdown(
            load_embedding=load_embedding,
            load_query=load_query,
            calc_distance=calc_distance,
            topk_aggregation=topk,
            return_topk=return_topk,
        )

    def retrieval_seconds(self, corpus: CorpusSpec, k: int = 5) -> float:
        """Total retrieval latency at paper scale."""
        return self.latency_breakdown(corpus, k).total


class CPURetriever:
    """FAISS-IndexFlatIP retrieval on the Xeon baseline."""

    def __init__(self, model: Optional[CPUModel] = None):
        from ..baselines.cpu import CPUModel

        self.model = model or CPUModel()

    def retrieve(self, corpus: MiniCorpus, query: np.ndarray,
                 k: int = 5) -> List[int]:
        """Exact search through the FAISS-like index."""
        # Only the CPU baseline's functional check needs the index, so
        # serving runs (which load this module) never import it.
        from ..baselines.faiss_like import IndexFlatIP

        index = IndexFlatIP(corpus.dim)
        index.add(corpus.embeddings.astype(np.float32))
        _, ids = index.search(query.astype(np.float32), k)
        return [int(i) for i in ids[0]]

    def retrieval_seconds(self, corpus: CorpusSpec, k: int = 5) -> float:
        """Calibrated Xeon latency at paper scale."""
        del k
        return self.model.retrieval_seconds(corpus.embedding_bytes)


class GPURetriever:
    """Exact retrieval on the A6000 baseline."""

    def __init__(self, model: Optional[GPUModel] = None):
        self.model = model or GPUModel()

    def retrieve(self, corpus: MiniCorpus, query: np.ndarray,
                 k: int = 5) -> List[int]:
        """Exact search (NumPy stands in for the CUDA kernels)."""
        scores = corpus.scores(query)
        order = np.lexsort((np.arange(corpus.n_chunks), -scores))
        return [int(i) for i in order[:k]]

    def retrieval_seconds(self, corpus: CorpusSpec, k: int = 5) -> float:
        """A6000 latency at paper scale."""
        del k
        return self.model.retrieval_seconds(
            corpus.embedding_bytes, corpus.n_chunks
        )
