"""The paper's quantitative claims, checked programmatically.

EXPERIMENTS.md narrates the paper-vs-reproduction comparison; this
module *is* that comparison: a registry of every headline claim with
the paper's value, a callable that measures ours, and the tolerance
within which the reproduction is considered to hold.  One call to
:func:`validate_reproduction` re-derives the whole table --
``python -m repro.cli claims`` prints it.

Tolerances encode the reproduction contract: tight (a few percent) for
quantities the models were calibrated against, loose (tens of percent)
for emergent quantities that must only preserve the paper's shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

__all__ = ["Claim", "ClaimResult", "PAPER_CLAIMS", "validate_reproduction"]


@dataclass(frozen=True)
class Claim:
    """One quantitative statement from the paper."""

    key: str
    description: str
    paper_value: float
    measure: Callable[[], float]
    rel_tolerance: float
    source: str  # where in the paper the number lives


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of checking one claim."""

    claim: Claim
    measured: float

    @property
    def relative_error(self) -> float:
        """Signed deviation from the paper's value."""
        return (self.measured - self.claim.paper_value) / self.claim.paper_value

    @property
    def holds(self) -> bool:
        """Whether the measurement is within the claim's tolerance."""
        return abs(self.relative_error) <= self.claim.rel_tolerance


# ----------------------------------------------------------------------
# Measurement thunks (imported lazily so the registry is cheap to load)
# ----------------------------------------------------------------------
def _matmul_baseline_ms() -> float:
    from .opt.matmul import BaselineMatmul
    from .apu.device import APUDevice

    kernel = BaselineMatmul(APUDevice(functional=False), 1024, 1024, 1024)
    return kernel.run().latency_ms


def _matmul_speedup() -> float:
    from .opt.matmul import run_all_stages

    results = run_all_stages(1024, 1024, 1024, functional=False)
    return results["baseline"].latency_ms / results["opt1+2+3"].latency_ms


def _phoenix_mean_speedup() -> float:
    from .phoenix.suite import PhoenixSuite

    return PhoenixSuite().aggregate_speedups()["mean_vs_1t"]


def _phoenix_peak_speedup() -> float:
    from .phoenix.suite import PhoenixSuite

    return PhoenixSuite().aggregate_speedups()["peak_vs_1t"]


def _phoenix_mt_mean_speedup() -> float:
    from .phoenix.suite import PhoenixSuite

    return PhoenixSuite().aggregate_speedups()["mean_vs_16t"]


def _framework_accuracy() -> float:
    from .phoenix.suite import PhoenixSuite

    return PhoenixSuite().mean_accuracy()


def _retrieval_opt_200gb_ms() -> float:
    from .rag.corpus import PAPER_CORPORA
    from .rag.retrieval import APURetriever

    return APURetriever(optimized=True).retrieval_seconds(
        PAPER_CORPORA["200GB"]) * 1e3


def _retrieval_noopt_200gb_ms() -> float:
    from .rag.corpus import PAPER_CORPORA
    from .rag.retrieval import APURetriever

    return APURetriever(optimized=False).retrieval_seconds(
        PAPER_CORPORA["200GB"]) * 1e3


def _retrieval_speedup_200gb() -> float:
    from .rag.corpus import PAPER_CORPORA
    from .rag.retrieval import APURetriever, CPURetriever

    spec = PAPER_CORPORA["200GB"]
    return (CPURetriever().retrieval_seconds(spec)
            / APURetriever(optimized=True).retrieval_seconds(spec))


def _e2e_speedup_200gb() -> float:
    from .rag.corpus import PAPER_CORPORA
    from .rag.generation import GenerationModel
    from .rag.pipeline import RAGPipeline
    from .rag.retrieval import APURetriever, CPURetriever

    spec = PAPER_CORPORA["200GB"]
    gen = GenerationModel()
    cpu = RAGPipeline(CPURetriever(), gen).time_to_interactive(spec)
    apu = RAGPipeline(APURetriever(optimized=True), gen).time_to_interactive(spec)
    return cpu / apu


def _energy_ratio_200gb() -> float:
    from .rag.energy import fig15_energy_comparison

    return fig15_energy_comparison()["200GB"].efficiency_ratio


def _energy_static_fraction() -> float:
    from .rag.energy import fig15_energy_comparison

    return fig15_energy_comparison()["200GB"].apu_energy.fractions()["static"]


def _hbm_peak_gbs() -> float:
    from .hbm.hbm2e import make_hbm2e

    return make_hbm2e().peak_bandwidth / 1e9


def _embedding_load_200gb_ms() -> float:
    from .hbm.hbm2e import make_hbm2e
    from .rag.corpus import PAPER_CORPORA

    return make_hbm2e().transfer_seconds(
        PAPER_CORPORA["200GB"].embedding_bytes, "sequential") * 1e3


#: Every headline claim, in paper order.
PAPER_CLAIMS: List[Claim] = [
    Claim("matmul_baseline_ms", "Fig. 12 baseline binary matmul latency",
          226.3, _matmul_baseline_ms, 0.15, "Section 5.1"),
    Claim("matmul_speedup", "Fig. 12 all-opts speedup over baseline",
          18.9, _matmul_speedup, 1.0, "Section 5.1"),
    Claim("phoenix_mean_speedup", "Phoenix mean speedup vs 1T CPU",
          41.8, _phoenix_mean_speedup, 0.25, "Section 5.2"),
    Claim("phoenix_peak_speedup", "Phoenix peak speedup vs 1T CPU",
          128.3, _phoenix_peak_speedup, 0.25, "Section 5.2"),
    Claim("phoenix_mt_mean_speedup", "Phoenix mean speedup vs 16T CPU",
          12.5, _phoenix_mt_mean_speedup, 0.25, "Section 5.2"),
    Claim("framework_accuracy", "analytical framework mean accuracy",
          0.973, _framework_accuracy, 0.03, "Section 5.2.2"),
    Claim("retrieval_noopt_200gb_ms", "Table 8 unoptimized retrieval, 200 GB",
          539.2, _retrieval_noopt_200gb_ms, 0.35, "Table 8"),
    Claim("retrieval_opt_200gb_ms", "Table 8 all-opts retrieval, 200 GB",
          84.2, _retrieval_opt_200gb_ms, 0.35, "Table 8"),
    Claim("retrieval_speedup_200gb", "retrieval speedup vs CPU, 200 GB",
          6.6, _retrieval_speedup_200gb, 0.25, "Section 5.3.3"),
    Claim("e2e_speedup_200gb", "end-to-end RAG gain vs CPU, 200 GB",
          1.75, _e2e_speedup_200gb, 0.12, "Section 5.3.3"),
    Claim("energy_ratio_200gb", "energy efficiency vs A6000, 200 GB",
          117.9, _energy_ratio_200gb, 0.15, "Section 5.3.5"),
    Claim("energy_static_fraction", "static share of APU retrieval energy",
          0.714, _energy_static_fraction, 0.05, "Section 5.3.5"),
    Claim("hbm_peak_gbs", "simulated HBM2e peak bandwidth (GB/s)",
          400.0, _hbm_peak_gbs, 0.05, "Section 5.3.1"),
    Claim("embedding_load_200gb_ms", "Table 8 optimized embedding load",
          6.1, _embedding_load_200gb_ms, 0.15, "Table 8"),
]


def validate_reproduction(
    claims: List[Claim] = None,
) -> Dict[str, ClaimResult]:
    """Measure every registered claim and return the results."""
    results = {}
    for claim in claims or PAPER_CLAIMS:
        results[claim.key] = ClaimResult(claim=claim,
                                         measured=claim.measure())
    return results
