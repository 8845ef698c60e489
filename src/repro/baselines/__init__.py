"""Baseline platforms: Xeon Gold 6230R, RTX A6000, FAISS-like indexes."""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "anns": ("IndexIVFFlat", "ivf_recall_at_k"),
    "cpu": (
        "CPUModel", "CPUSpec", "PHOENIX_CPU", "PhoenixCPUCalibration",
        "XEON_6230R"),
    "faiss_like": ("IndexFlatIP", "IndexFlatL2"),
    "gpu": ("GPUModel", "GPUSpec", "RTX_A6000"),
})
