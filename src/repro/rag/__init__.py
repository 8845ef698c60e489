"""Retrieval-augmented generation on compute-in-SRAM (paper Section 5.3)."""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "batching": ("BatchThroughput", "BatchedAPURetrieval"),
    "corpus": ("CorpusSpec", "MiniCorpus", "PAPER_CORPORA"),
    "energy": (
        "RetrievalEnergyPoint", "apu_retrieval_energy",
        "fig15_energy_comparison"),
    "generation": ("GenerationModel", "LLAMA31_8B_PARAMS"),
    "pipeline": ("Fig14Entry", "RAGPipeline", "fig14_comparison"),
    "retrieval": (
        "APURetriever", "CPURetriever", "GPURetriever", "RetrievalBreakdown"),
    "topk": ("apu_topk", "topk_aggregation_cycles"),
})
