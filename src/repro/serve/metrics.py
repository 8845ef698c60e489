"""Serving metrics: latency percentiles, SLO attainment, utilization.

Percentiles use the nearest-rank definition (ceil(p/100 * n)-th order
statistic), which is deterministic, interpolation-free, and exactly
reproducible in golden traces and cross-platform CI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Union

import numpy as np

__all__ = ["EmptySampleError", "ZeroDurationError",
           "nearest_rank_percentile", "LatencyStats", "slo_attainment",
           "utilization"]


class EmptySampleError(ValueError):
    """A statistic was asked of zero samples.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    callers keep working; new callers can catch the typed error to
    distinguish "no data" from a malformed argument.
    """


class ZeroDurationError(ValueError):
    """A rate or utilization was asked over a non-positive window.

    Subclasses :class:`ValueError` for the same compatibility reason as
    :class:`EmptySampleError`.
    """


def _rank(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def nearest_rank_percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an unsorted sample."""
    if not values:
        raise EmptySampleError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct!r}")
    return _rank(sorted(values), pct)


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics of one latency sample (seconds)."""

    n: int
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float

    @classmethod
    def from_samples(cls, samples: Union[Sequence[float], np.ndarray]
                     ) -> "LatencyStats":
        """Stats of a list or a 1-d float array, sorted once.

        The mean adds the samples in their given order with Python's
        ``sum`` (not NumPy's pairwise sum), so a list and the array
        holding the same values give bit-identical stats.  An array's
        order statistics are read by indexing its sorted copy; only
        those four values become Python floats.
        """
        if not len(samples):
            raise EmptySampleError("latency stats need at least one sample")
        if isinstance(samples, np.ndarray):
            values = samples.tolist()
            ordered = np.sort(samples)
        else:
            values = samples
            ordered = sorted(samples)
        return cls(
            n=len(values),
            mean_s=sum(values) / len(values),
            p50_s=float(_rank(ordered, 50)),
            p95_s=float(_rank(ordered, 95)),
            p99_s=float(_rank(ordered, 99)),
            max_s=float(ordered[-1]),
        )

    def as_ms(self) -> Dict[str, float]:
        """The stats in milliseconds, for reports."""
        return {
            "mean": self.mean_s * 1e3,
            "p50": self.p50_s * 1e3,
            "p95": self.p95_s * 1e3,
            "p99": self.p99_s * 1e3,
            "max": self.max_s * 1e3,
        }


def slo_attainment(latencies_s: Union[Sequence[float], np.ndarray],
                   slo_s: float) -> float:
    """Fraction of requests at or under the latency SLO."""
    if slo_s <= 0:
        raise ZeroDurationError(f"SLO must be positive, got {slo_s!r}")
    if not len(latencies_s):
        raise EmptySampleError("SLO attainment of an empty sample")
    within = np.asarray(latencies_s, dtype=np.float64) <= slo_s
    return int(np.count_nonzero(within)) / len(latencies_s)


def utilization(busy_seconds: Sequence[float],
                horizon_s: float) -> List[float]:
    """Per-shard busy fraction of the simulated horizon."""
    if math.isnan(horizon_s) or horizon_s <= 0:
        raise ZeroDurationError(
            f"horizon must be positive, got {horizon_s!r}")
    return [min(1.0, busy / horizon_s) for busy in busy_seconds]
