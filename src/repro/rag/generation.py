"""Llama3.1-8B generation latency model (the Fig. 14 generation bar).

The paper runs the generator on a dedicated GPU, so only its prefill
latency (time to first token) enters the time-to-interactive metric.
The model is a standard FLOPs roofline: prefill computes
``2 * parameters * context_tokens`` FLOPs at the generation GPU's
sustained fp16 throughput, plus a fixed sampling/launch overhead.

With the default context budget (question + retrieved passages
truncated to ~512 tokens) the prefill lands at ~550 ms, which matches
the retrieval fractions the paper reports for the CPU baseline (4.3%
of end-to-end at 10 GB, 50.5% at 200 GB).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines.gpu import GPUSpec, RTX_A6000

__all__ = ["GenerationModel", "LLAMA31_8B_PARAMS"]

#: Llama3.1-8B parameter count.
LLAMA31_8B_PARAMS = 8.03e9


@dataclass(frozen=True)
class GenerationModel:
    """Prefill/decode latency of the generation-side GPU."""

    parameters: float = LLAMA31_8B_PARAMS
    gpu: GPUSpec = RTX_A6000
    #: Sustained fraction of peak fp16 throughput during prefill.
    prefill_efficiency: float = 0.50
    #: Tokenization + sampling + launch overhead per request, seconds.
    fixed_overhead_s: float = 0.070
    #: Question plus truncated retrieved passages.
    default_context_tokens: int = 520

    def prefill_seconds(self, context_tokens: int = None) -> float:
        """Time to first token for a given context length."""
        tokens = (self.default_context_tokens if context_tokens is None
                  else context_tokens)
        if tokens <= 0:
            raise ValueError("context must contain at least one token")
        flops = 2.0 * self.parameters * tokens
        sustained = self.gpu.fp16_tflops * 1e12 * self.prefill_efficiency
        return self.fixed_overhead_s + flops / sustained

    def decode_seconds_per_token(self) -> float:
        """Steady-state decode latency (memory-bandwidth bound)."""
        bytes_per_token = 2.0 * self.parameters  # fp16 weights read once
        return bytes_per_token / self.gpu.memory_bandwidth
