"""CI benchmark-regression gate for the serving benchmarks.

Collects the deterministic metric dicts from the registered benchmark
suites and enforces two properties against each suite's committed
baseline:

* **Determinism** -- every metric collected twice in the same process
  must be *bit-identical* (the simulators are seeded discrete-event
  models; any drift is a bug, not noise).
* **No regression** -- throughput-like metrics (``*_qps``) must not
  fall more than ``--tolerance`` (default 10%) below the baseline, and
  latency-like metrics (``*_ms``) must not rise more than the same
  fraction above it.  Exact metrics (coverage, counts) must match the
  baseline bit-for-bit -- they are model outputs, not timings.

Suites (``--suite`` restricts to one; default is all).  A suite is a
list of ``(baseline file, benchmark modules)`` pairs, each gated
independently so a new benchmark lands with its own baseline file
instead of invalidating an existing one:

* ``serve`` -- ``BENCH_serve.json`` from ``bench_serve_scaling`` +
  ``bench_fault_degradation``.
* ``integrity`` -- ``BENCH_integrity.json`` from
  ``bench_integrity_overhead`` (the SDC sweep).
* ``telemetry`` -- ``BENCH_telemetry.json`` from
  ``bench_telemetry_overhead`` (causal-tracing collection cost).
* ``simcore`` -- ``BENCH_simcore.json`` from ``bench_simcore_events``
  (the vectorized core's event rate on a saturated million-query
  stream and on a light-load stream).
* ``scale`` -- ``BENCH_scale.json`` from ``bench_scale_spike`` (the
  10x load spike) and ``BENCH_scale_faults.json`` from
  ``bench_scale_faults`` (spike + shard deaths + SDC upsets).
* ``ecc`` -- ``BENCH_ecc.json`` from ``bench_ecc_dse`` (the
  protection-tier capability grid, charged decode costs, and the
  clock design-space sweep).
* ``monitor`` -- ``BENCH_monitor.json`` from ``bench_monitor_overhead``
  (the streaming-sampler build cost on top of a telemetry run).

When ``$GITHUB_STEP_SUMMARY`` is set (any GitHub Actions job), every
gated baseline also appends a per-metric delta table (baseline vs
current, % change) to the job summary, so reviewers see *how far*
each metric moved, not just pass/fail.

Wall-clock-derived suffixes get special treatment because they are
measured, not simulated: ``*_overhead_frac`` is held under an absolute
ceiling (0.15) rather than compared to the baseline, ``*_speedup_x``
is held above an absolute floor (100: the vectorized core's headline
claim), ``*_events_per_s`` is gated relative to the baseline like a
throughput but with a widened tolerance (3x the default, so 30%)
because sub-100ms wall timings on shared runners jitter past 10%
even with best-of-N sampling, and ``*_wall_ms`` is informational
only.  All are exempt from the bit-identical-replay determinism
check.  The *hard* perf gates for the vectorized core are therefore
``_speedup_x`` -- ambient contention slows both engines, so the ratio
is stable where the absolute rates are not -- and ``bit_identical``.

Refresh a baseline after a reviewed model change with::

    python benchmarks/check_bench_regression.py --update

which is what the CI ``update-bench`` label path runs.
"""

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
_SRC_DIR = BENCH_DIR.parent / "src"
if str(_SRC_DIR) not in sys.path:
    sys.path.insert(0, str(_SRC_DIR))
#: suite name -> ((baseline file, benchmark modules feeding it), ...)
SUITES = {
    "serve": (("BENCH_serve.json",
               ("bench_serve_scaling", "bench_fault_degradation")),),
    "integrity": (("BENCH_integrity.json",
                   ("bench_integrity_overhead",)),),
    "telemetry": (("BENCH_telemetry.json",
                   ("bench_telemetry_overhead",)),),
    "simcore": (("BENCH_simcore.json",
                 ("bench_simcore_events",)),),
    "scale": (("BENCH_scale.json",
               ("bench_scale_spike",)),
              ("BENCH_scale_faults.json",
               ("bench_scale_faults",))),
    "ecc": (("BENCH_ecc.json",
             ("bench_ecc_dse",)),),
    "monitor": (("BENCH_monitor.json",
                 ("bench_monitor_overhead",)),),
}
# The tolerance policy (suffix classes, absolute ceilings/floors, the
# gate itself) lives in ``repro.monitor.tolerance`` so the cross-run
# differ (``repro diff``) reproduces this gate's verdicts exactly.
from repro.monitor.tolerance import (  # noqa: E402
    WALL_CLOCK, gate_failures, validate_tolerance)


def collect_suite(modules):
    """Metric dict {bench: {row: {metric: value}}} from the modules."""
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    merged = {}
    for name in modules:
        module = importlib.import_module(name)
        metrics = module.collect_metrics()
        overlap = set(metrics) & set(merged)
        if overlap:
            raise RuntimeError(f"duplicate metric groups: {sorted(overlap)}")
        merged.update(metrics)
    return merged


def flatten(metrics):
    """{"group/row/metric": value} for uniform comparison."""
    flat = {}
    for group, rows in metrics.items():
        for row, values in rows.items():
            for metric, value in values.items():
                flat[f"{group}/{row}/{metric}"] = value
    return flat


def check_determinism(first, second):
    """Bit-identical replay or a list of drifting keys."""
    drifted = [key for key in sorted(set(first) | set(second))
               if not key.endswith(WALL_CLOCK)
               and first.get(key) != second.get(key)]
    return [f"DETERMINISM DRIFT {key}: {first.get(key)!r} != "
            f"{second.get(key)!r}" for key in drifted]


def check_regressions(baseline, current, tolerance):
    """The shared gate from ``repro.monitor.tolerance`` (same verdicts)."""
    return gate_failures(baseline, current, tolerance)


def delta_table(title, baseline, current):
    """GitHub-flavored markdown delta table for one gated baseline."""
    lines = [f"### Benchmark deltas: `{title}`", "",
             "| metric | baseline | current | change |",
             "| --- | ---: | ---: | ---: |"]
    for key in sorted(set(baseline) | set(current)):
        base = baseline.get(key)
        value = current.get(key)
        if base is None:
            change = "new"
        elif value is None:
            change = "missing"
        elif base == value:
            change = "="
        elif isinstance(base, (int, float)) and base != 0:
            change = f"{(value - base) / base:+.2%}"
        else:
            change = "changed"
        fmt = lambda v: "--" if v is None else (
            f"{v:.4g}" if isinstance(v, float) else str(v))
        lines.append(f"| `{key}` | {fmt(base)} | {fmt(value)} | {change} |")
    lines.append("")
    return "\n".join(lines) + "\n"


def write_step_summary(text):
    """Append to the GitHub Actions job summary when running in CI."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    with open(path, "a") as handle:
        handle.write(text)


def run_baseline(suite, baseline_name, modules, args) -> int:
    """Gate (or refresh) one baseline file; returns an exit code."""
    baseline_path = BENCH_DIR / baseline_name

    first = flatten(collect_suite(modules))
    second = flatten(collect_suite(modules))
    failures = check_determinism(first, second)
    if failures:
        print("\n".join(failures))
        print(f"\n[{suite}] {len(failures)} determinism failure(s)")
        return 1

    if args.update:
        baseline_path.write_text(
            json.dumps(first, indent=2, sort_keys=True) + "\n")
        print(f"[{suite}] baseline refreshed: {baseline_path} "
              f"({len(first)} metrics)")
        return 0

    if not baseline_path.exists():
        print(f"[{suite}] no baseline at {baseline_path}; "
              f"run with --update")
        return 1
    baseline = json.loads(baseline_path.read_text())
    write_step_summary(delta_table(
        f"{suite}: {baseline_name}", baseline, first))
    failures = check_regressions(baseline, first, args.tolerance)
    if failures:
        print("\n".join(failures))
        print(f"\n[{suite}] {len(failures)} benchmark gate failure(s) "
              f"against {baseline_name}")
        return 1
    print(f"[{suite}] benchmark gate OK: {len(baseline)} metrics within "
          f"{args.tolerance:.0%} of {baseline_name}, replay bit-identical")
    return 0


def run_suite(suite, args) -> int:
    """Gate (or refresh) every baseline in one suite."""
    return max(run_baseline(suite, baseline_name, modules, args)
               for baseline_name, modules in SUITES[suite])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", action="store_true",
                        help="rewrite the committed baseline(s) from the "
                             "current metrics")
    parser.add_argument("--suite", choices=sorted(SUITES), default=None,
                        help="gate only one suite (default: all)")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="relative tolerance for *_qps / *_ms metrics")
    args = parser.parse_args(argv)
    try:
        validate_tolerance(args.tolerance)
    except ValueError as exc:
        parser.error(str(exc))

    suites = [args.suite] if args.suite else sorted(SUITES)
    return max(run_suite(suite, args) for suite in suites)


if __name__ == "__main__":
    raise SystemExit(main())
