"""Compare two end-to-end benchmark results under BENCHMARK.json's bounds.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the baseline and ``B`` the candidate, each written by
``run.py --json``.  Every end-to-end metric of every workload gets one
verdict, using the metric's direction and bound from ``BENCHMARK.json``:

  regressed   B's median is worse than A's by more than the bound
  improved    B's median is better than A's by more than the bound
  unchanged   the medians differ by no more than the bound
  unresolved  a side's rep spread, (q3 - q1) / median, is wider than the
              bound -- unless every B rep beats every A rep (improved)

``error_rate`` (failed / attempted) regresses on any increase.  When
both results share seed and scale, every simulated metric (``sim_*``,
``sim.*``) must be bit-identical: a simulator-speed change may not move
the simulated outcome, so any difference is reported as ``changed`` and
counts as a regression.  Exits 1 on any regression.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def spread(stats):
    return (stats["q3"] - stats["q1"]) / stats["value"]


def verdict(a, b, better, bound):
    """``(verdict, relative change toward worse, widest spread)``."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b["value"] - a["value"]) / a["value"]
    widest = max(spread(a), spread(b))
    if widest > bound:
        beats = all(sign * (xb - xa) < 0
                    for xb in b["samples"] for xa in a["samples"])
        return ("improved" if beats else "unresolved"), worse, widest
    if worse > bound:
        return "regressed", worse, widest
    if worse < -bound:
        return "improved", worse, widest
    return "unchanged", worse, widest


def is_simulated(name):
    return name.startswith("sim_") or name.startswith("sim.")


def compare(a, b, spec):
    """Yield ``(workload, metric, verdict, detail)`` rows."""
    same_inputs = (a["seed"], a["scale"]) == (b["seed"], b["scale"])
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            yield name, "-", "skipped", "workload missing from B"
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            if key not in wa["host"] or key not in wb["host"]:
                yield name, key, "skipped", "metric missing"
                continue
            sa, sb = wa["host"][key], wb["host"][key]
            result, worse, widest = verdict(sa, sb, metric["better"],
                                            metric["bound"])
            direction = "worse" if worse > 0 else "better"
            yield name, key, result, (
                f"{sa['value']:.6g} -> {sb['value']:.6g} {metric['unit']} "
                f"({abs(worse) * 100:.1f}% {direction}, spread "
                f"{widest * 100:.1f}%, bound {metric['bound'] * 100:.0f}%)")
        rate_a = wa["failed"] / wa["attempted"]
        rate_b = wb["failed"] / wb["attempted"]
        yield name, "error_rate", \
            "regressed" if rate_b > rate_a else "unchanged", \
            f"{rate_a:.4g} -> {rate_b:.4g}"
        if not same_inputs:
            yield name, "simulated", "skipped", "seed or scale differ"
            continue
        moved = sorted(k for k in wa["layer"] if is_simulated(k)
                       and wa["layer"][k] != wb["layer"].get(k))
        yield name, "simulated", "changed" if moved else "identical", \
            ", ".join(moved) or "every sim metric bit-identical"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", type=Path)
    parser.add_argument("candidate", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a = json.loads(args.baseline.read_text())
    b = json.loads(args.candidate.read_text())
    regressions = 0
    for workload, metric, result, detail in compare(a, b, spec):
        regressions += result in ("regressed", "changed")
        print(f"{workload:26s} {metric:16s} {result:11s} {detail}")
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
