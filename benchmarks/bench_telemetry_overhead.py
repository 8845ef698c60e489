"""Telemetry overhead: what causal tracing costs the simulator.

Telemetry is collected in two phases with very different budgets:

* **In-loop collection** -- while the event loop runs, the only
  instrumentation is a pass-through wrapper on the service-time
  callable that records one (memoized) stage table per dispatched
  batch.  This is the part that could slow the simulator down, and the
  CI gate holds it under 15% of the telemetry-off wall clock
  (``collection_overhead_frac``).
* **Post-hoc build** -- span trees, critical paths, and the metrics
  registry are derived *after* the run from the scheduler's causal
  record (that is how bit-identity is guaranteed), so their cost is
  analysis you only pay when you ask for telemetry.  Reported as
  informational ``*_wall_ms`` metrics, not gated: wall-clock noise
  would make a hard bound flaky, and the build cannot perturb results.

The deterministic shape of the derived telemetry (span counts, chain
lengths, conservation error) *is* gated exactly -- any drift there is
a model change, not noise.  ``n_spans`` counts every tree's spans (a
batch span shared by its member requests counts once per member);
``n_distinct_spans`` counts span objects, so a builder that rebuilt
each batch span per member would show up as drift.

Same dual entry points as the other serving benchmarks: a
pytest-benchmark ``test_`` (marked ``telemetry``, so it runs in the
slow CI job) and ``python benchmarks/bench_telemetry_overhead.py
--json`` for the CI regression gate.
"""

import argparse
import json
import time

import pytest

from repro.core.params import DEFAULT_PARAMS
from repro.serve import ServingSimulator, golden_serve_config
from repro.telemetry import conservation_error_cycles

N_TIMING_RUNS = 9
CLOCK = DEFAULT_PARAMS.clock_hz


def _best_wall_s(fn, n=N_TIMING_RUNS):
    """Best-of-n wall clock: the least noise-contaminated sample."""
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _timings():
    config = golden_serve_config()
    plain_s = _best_wall_s(lambda: ServingSimulator(config).run())
    collecting_s = _best_wall_s(
        lambda: ServingSimulator(config)._simulate(capture=True))
    full_s = _best_wall_s(
        lambda: ServingSimulator(config).run_with_telemetry())
    return plain_s, collecting_s, full_s


def _shape():
    """Deterministic telemetry shape of the golden serve workload."""
    _report, telemetry = \
        ServingSimulator(golden_serve_config()).run_with_telemetry()
    worst = max(abs(conservation_error_cycles(path, CLOCK))
                for path in telemetry.critical_paths)
    distinct = {id(span) for trace in telemetry.traces
                for _, span in trace.root.walk()}
    return {
        "n_traces": len(telemetry.traces),
        "n_spans": sum(t.n_spans() for t in telemetry.traces),
        "n_distinct_spans": len(distinct),
        "n_chain_segments": sum(len(p.segments)
                                for p in telemetry.critical_paths),
        "n_metrics": len(telemetry.registry),
        "worst_conservation_nanocycles": round(worst * 1e9),
    }


def collect_metrics():
    """Deterministic scalar metrics keyed for the CI regression gate."""
    plain_s, collecting_s, full_s = _timings()
    metrics = dict(_shape())
    metrics["collection_overhead_frac"] = \
        max(0.0, (collecting_s - plain_s) / plain_s)
    metrics["plain_wall_ms"] = plain_s * 1e3
    metrics["collecting_wall_ms"] = collecting_s * 1e3
    metrics["full_telemetry_wall_ms"] = full_s * 1e3
    return {"telemetry_overhead": {"serve": metrics}}


@pytest.mark.telemetry
def test_telemetry_overhead(benchmark, report):
    plain_s, collecting_s, full_s = benchmark(_timings)
    shape = _shape()
    # One contaminated sample must not flake CI: the budget applies to
    # the best overhead observed, so retry under transient load.
    overhead = min((c - p) / p
                   for p, c, _ in [(plain_s, collecting_s, full_s)]
                   + [_timings() for _ in range(2)])

    report(f"telemetry overhead on the golden serve workload "
           f"(best of {N_TIMING_RUNS}):")
    report(f"  telemetry off      {plain_s * 1e3:8.3f} ms")
    report(f"  in-loop collection {collecting_s * 1e3:8.3f} ms "
           f"({overhead:+.1%})")
    report(f"  with span build    {full_s * 1e3:8.3f} ms")
    report(f"  derived: {shape['n_traces']} traces, "
           f"{shape['n_spans']} spans, {shape['n_metrics']} metrics, "
           f"worst conservation {shape['worst_conservation_nanocycles']} "
           f"nanocycles")

    assert overhead < 0.15, (
        f"in-loop telemetry collection costs {overhead:.1%} "
        f"of the telemetry-off run (budget 15%)")
    assert shape["n_traces"] == 64
    assert shape["worst_conservation_nanocycles"] < 1e6  # << 1e-3 cycles


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true",
                        help="emit metrics as JSON on stdout")
    args = parser.parse_args(argv)
    metrics = collect_metrics()
    if args.json:
        print(json.dumps(metrics, indent=2, sort_keys=True))
    else:
        for key, value in metrics["telemetry_overhead"]["serve"].items():
            print(f"  {key}: {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
