"""The shared benchmark-gate tolerance policy.

One suffix-driven classification of metric names, used by **both** the
CI benchmark-regression gate (``benchmarks/check_bench_regression.py``
imports these symbols) and the cross-run differ
(:mod:`repro.monitor.diff`), so ``repro diff`` reproduces the gate's
verdicts metric-for-metric on the same inputs -- a property the diff
tests pin against the stored baselines.

Classification by metric-name suffix:

* ``*_qps`` / ``*_events_per_s`` -- higher is better, gated relative
  to the baseline (``_events_per_s`` is wall-clock-derived, so its
  tolerance widens by :data:`WALL_CLOCK_RATE_MULT`).
* ``*_ms`` -- lower is better, gated relative to the baseline.
* ``*_overhead_frac`` -- absolute ceiling (0.15), baseline-free.
* ``*_speedup_x`` -- absolute floor (100), baseline-free.
* ``*_wall_ms`` -- informational, never gated.
* everything else -- exact model output: any drift fails.
"""

from __future__ import annotations

import math
from typing import Any, List, Mapping

__all__ = [
    "ABSOLUTE_CEILINGS",
    "ABSOLUTE_FLOORS",
    "DEFAULT_TOLERANCE",
    "HIGHER_IS_BETTER",
    "INFORMATIONAL",
    "LOWER_IS_BETTER",
    "WALL_CLOCK",
    "WALL_CLOCK_RATE",
    "WALL_CLOCK_RATE_MULT",
    "classify",
    "gate_failures",
    "validate_tolerance",
]

#: Default relative tolerance for throughput/latency metrics.
DEFAULT_TOLERANCE = 0.10

#: Metric-name suffixes gated with relative tolerance (timing-like).
HIGHER_IS_BETTER = ("_qps", "_events_per_s")
LOWER_IS_BETTER = ("_ms",)
#: Wall-clock measurements: nondeterministic by nature, so exempt from
#: the replay check.  ``*_overhead_frac`` is gated against an absolute
#: ceiling, ``*_speedup_x`` above an absolute floor; ``*_wall_ms`` is
#: recorded for humans but never gated; ``*_events_per_s`` is relative-
#: gated above but still wall-clock-derived, hence replay-exempt.
ABSOLUTE_CEILINGS = {"_overhead_frac": 0.15}
ABSOLUTE_FLOORS = {"_speedup_x": 100.0}
INFORMATIONAL = ("_wall_ms",)
#: Wall-clock *rates* keep a relative gate but widen the tolerance:
#: the measured runs are tens of milliseconds, so runner contention
#: swings them further than deterministic model outputs ever move.
WALL_CLOCK_RATE = ("_events_per_s",)
WALL_CLOCK_RATE_MULT = 3.0
WALL_CLOCK = tuple(ABSOLUTE_CEILINGS) + tuple(ABSOLUTE_FLOORS) \
    + INFORMATIONAL + ("_events_per_s",)


def classify(key: str) -> str:
    """The gate class a metric name falls into.

    One of ``"ceiling"``, ``"floor"``, ``"informational"``,
    ``"higher"``, ``"lower"``, or ``"exact"`` -- evaluated in the same
    precedence order as :func:`gate_failures`.
    """
    if any(key.endswith(s) for s in ABSOLUTE_CEILINGS):
        return "ceiling"
    if any(key.endswith(s) for s in ABSOLUTE_FLOORS):
        return "floor"
    if key.endswith(INFORMATIONAL):
        return "informational"
    if key.endswith(HIGHER_IS_BETTER):
        return "higher"
    if key.endswith(LOWER_IS_BETTER):
        return "lower"
    return "exact"


def validate_tolerance(tolerance: float) -> None:
    """Raise :class:`ValueError` naming ``tolerance`` unless it is a
    finite number >= 0 (a NaN gates nothing, a negative one fails
    identical runs)."""
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(
            f"tolerance must be a finite number >= 0, got {tolerance!r}")


def gate_failures(baseline: Mapping[str, Any],
                  current: Mapping[str, Any],
                  tolerance: float = DEFAULT_TOLERANCE) -> List[str]:
    """The benchmark gate's failure list for two flat metric dicts.

    Exactly the CI gate's verdicts: missing/new metrics, absolute
    ceiling/floor breaches, relative throughput/latency regressions
    past ``tolerance``, and bit-exact drift on everything else.
    """
    validate_tolerance(tolerance)
    failures = []
    for key in sorted(baseline):
        base = baseline[key]
        if key not in current:
            failures.append(f"MISSING metric {key} (baseline {base!r})")
            continue
        value = current[key]
        ceiling_suffix = next((s for s in ABSOLUTE_CEILINGS
                               if key.endswith(s)), None)
        floor_suffix = next((s for s in ABSOLUTE_FLOORS
                             if key.endswith(s)), None)
        if ceiling_suffix is not None:
            ceiling = ABSOLUTE_CEILINGS[ceiling_suffix]
            if value > ceiling:
                failures.append(
                    f"REGRESSION {key}: {value:.3f} > absolute ceiling "
                    f"{ceiling:.3f}")
        elif floor_suffix is not None:
            floor = ABSOLUTE_FLOORS[floor_suffix]
            if value < floor:
                failures.append(
                    f"REGRESSION {key}: {value:.3f} < absolute floor "
                    f"{floor:.3f}")
        elif key.endswith(INFORMATIONAL):
            pass  # wall-clock context for humans, never gated
        elif key.endswith(HIGHER_IS_BETTER):
            tol = tolerance
            if key.endswith(WALL_CLOCK_RATE):
                tol = tolerance * WALL_CLOCK_RATE_MULT
            floor = base * (1.0 - tol)
            if value < floor:
                failures.append(
                    f"REGRESSION {key}: {value:.3f} < {floor:.3f} "
                    f"(baseline {base:.3f}, tolerance {tol:.0%})")
        elif key.endswith(LOWER_IS_BETTER):
            ceiling = base * (1.0 + tolerance)
            if value > ceiling:
                failures.append(
                    f"REGRESSION {key}: {value:.3f} > {ceiling:.3f} "
                    f"(baseline {base:.3f}, tolerance {tolerance:.0%})")
        elif value != base:
            failures.append(
                f"EXACT-METRIC DRIFT {key}: {value!r} != baseline {base!r}")
    for key in sorted(set(current) - set(baseline)):
        failures.append(
            f"NEW metric {key} not in baseline (run with --update)")
    return failures
