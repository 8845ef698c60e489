"""One child process of the end-to-end benchmark.

    python benchmarks/e2e/child.py rep    --workload NAME --seed N [--scale S]
    python benchmarks/e2e/child.py oracle --workload NAME --seed N [--scale S]

``rep`` times one workload action from a cold interpreter: set-up
(``repro`` imports plus ``ScaleConfig`` and simulator construction),
the action's wall time and the process's peak RSS, then checks the
report.  ``oracle`` runs the checks that need a second simulation: the
scalar engine on the parity slice, the plain ``run()`` behind an
observed action, span conservation on the slice, and the paper claims.

A rep also times :func:`reference_s` right before and right after its
action, so ``run.py`` can scale host times to a reference host speed.
The kernel runs in the rep's own process because most of the run-to-run
noise on a shared host is per process: a kernel timed in the parent
tracked the action's speed far worse.

Both print one JSON object as their last line of standard output.
``run.py`` spawns them one at a time; ``trace.py`` reuses :func:`rep`.
"""

import argparse
import dataclasses
import gc
import hashlib
import json
import resource
import sys
import time

import workloads
from workloads import PARITY_SLICE, WORKLOADS

#: Typical :func:`reference_s` time on the 2-vCPU Xeon host the
#: benchmark was sized on: scaled host times are seconds at its speed.
REF_S = 0.08
_REF_ROWS = 100_000

#: Critical-path stage keys (``telemetry.critical.Segment.stage``); a
#: key outside this list fails the stage-sum check, so it cannot be
#: silently dropped from the ``sim.stage.*`` metrics.
STAGE_KEYS = ("queue_wait", "backoff", "failover_wait", "batch:ok",
              "batch:recompute", "batch:corrupted", "batch:timeout",
              "batch:interrupted", "merge", "prefill")


def reference_s():
    """Seconds for a fixed kernel shaped like the simulator's work:
    small-object allocation, a keyed sort, a Python loop over dicts and
    a NumPy sort plus scan.  It uses no ``repro`` code and runs with the
    collector off, so neither a simulator change nor the size of the
    live heap can move it."""
    import numpy as np

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rows = [(i * 0.5, i % 7, {"id": i}) for i in range(_REF_ROWS)]
        rows.sort(key=lambda row: (row[1], row[0]))
        sum(row[2]["id"] for row in rows)
        values = (np.arange(4 * _REF_ROWS) * 7919) % (4 * _REF_ROWS)
        np.cumsum(np.sort(values))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def stage_metric(key):
    return f"sim.stage.{key.replace(':', '-')}_ms"


def check(name, ok, detail=""):
    return {"name": name, "ok": bool(ok), "detail": detail}


def report_digest(report):
    """SHA-256 over every report field except the config (which names
    the engine), with floats at full ``repr`` precision."""
    fields = [(f.name, getattr(report, f.name))
              for f in dataclasses.fields(report) if f.name != "config"]
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def sim_metrics(report, telemetry, monitor):
    """Simulated (deterministic) metrics of one report."""
    elastic = hasattr(report, "goodput")
    util = report.shard_utilization
    metrics = {
        "sim_tti_p50_ms": report.tti.p50_s * 1e3,
        "sim_tti_p99_ms": report.tti.p99_s * 1e3,
        # Static runs complete every offered request, so attainment is
        # the within-SLO share of offered.
        "sim_goodput": report.goodput if elastic else report.slo_attainment,
        "sim_throughput_qps": report.throughput_qps,
        "sim.n_completed": report.n_completed,
        "sim.n_batches": report.n_batches,
        "sim.mean_batch_size": report.mean_batch_size,
        "sim.util_mean": sum(util) / len(util),
        "sim.admit_ratio":
            report.n_admitted / report.n_offered if elastic else 1.0,
        "sim.n_shed": report.n_shed if elastic else 0,
        "sim.n_attaches": report.n_attaches if elastic else 0,
        "sim.n_detaches": report.n_detaches if elastic else 0,
        "sim.pool_max": report.pool_max if elastic else report.config.n_shards,
        "sim.peak_burn": report.peak_burn_rate if elastic else 0.0,
        "sim.n_failovers": report.n_failovers if elastic else 0,
    }
    for field in ("n_timeouts", "n_retries", "n_shard_failures",
                  "degraded_requests", "n_corruptions_detected",
                  "n_recomputes", "n_sdc_escapes", "n_ecc_corrected",
                  "n_ecc_detected", "n_ecc_miscorrections"):
        metrics[f"sim.{field}"] = getattr(report, field)
    totals = {}
    if telemetry is not None:
        from repro.telemetry.critical import stage_attribution

        totals = stage_attribution(telemetry.critical_paths)
    for key in STAGE_KEYS:
        metrics[stage_metric(key)] = \
            totals.get(key, 0.0) / report.n_completed * 1e3
    metrics["mon.n_series"] = len(monitor.series) if monitor else 0
    metrics["mon.n_instants"] = len(monitor.instants) if monitor else 0
    return metrics, totals


def accounting_check(report, n_offered):
    if hasattr(report, "n_offered"):
        ok = (report.n_offered == n_offered
              and report.n_admitted + report.n_shed == report.n_offered
              and report.n_completed == report.n_admitted)
        detail = (f"offered {report.n_offered}/{n_offered}, admitted "
                  f"{report.n_admitted}, shed {report.n_shed}, completed "
                  f"{report.n_completed}")
    else:
        ok = report.n_completed == n_offered
        detail = f"completed {report.n_completed}/{n_offered}"
    return check("request_accounting", ok, detail)


def conservation_check(telemetry):
    from repro.telemetry import conservation_error_cycles

    worst = max(conservation_error_cycles(path, telemetry.clock_hz)
                for path in telemetry.critical_paths)
    return check("span_conservation", worst < 1.0,
                 f"worst {worst:.3g} cycles over "
                 f"{len(telemetry.critical_paths)} critical paths")


def stage_sum_check(report, totals):
    unknown = sorted(set(totals) - set(STAGE_KEYS))
    mean_ms = sum(totals.values()) / report.n_completed * 1e3
    tti_ms = report.tti.mean_s * 1e3
    ok = not unknown and abs(mean_ms - tti_ms) <= 1e-9 * tti_ms
    return check("stage_sum", ok,
                 f"stages {mean_ms!r} ms vs mean TTI {tti_ms!r} ms"
                 + (f"; unknown stage keys {unknown}" if unknown else ""))


def rep(name, seed, scale):
    """One timed action from a cold start, plus its report checks."""
    workload = WORKLOADS[name]
    n = workload.size(scale)
    t0 = time.perf_counter()
    workloads.import_repro()
    import_s = time.perf_counter() - t0
    # Input generation is the benchmark's job, not the simulator's.
    arrivals, faults = workloads.make_inputs(name, seed, n)
    t1 = time.perf_counter()
    from repro.scale import ScaleSimulator

    simulator = ScaleSimulator(workloads.make_config(
        name, seed, n, faults, arrivals if workload.elastic else None))
    init_s = time.perf_counter() - t1
    ref_before = reference_s()
    t2 = time.perf_counter()
    report, telemetry, monitor = workloads.act(simulator, workload.observed)
    wall_s = time.perf_counter() - t2
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    sim, totals = sim_metrics(report, telemetry, monitor)
    checks = [accounting_check(report, n)]
    if telemetry is not None:
        checks += [conservation_check(telemetry),
                   stage_sum_check(report, totals)]
    digest = report_digest(report)
    # Time the second kernel on a heap the action no longer fills.
    del report, telemetry, monitor, simulator
    gc.collect()
    return {
        "host": {"setup_s": import_s + init_s, "wall_s": wall_s,
                 "peak_rss_mb": peak_rss_mb},
        "ref_s": (ref_before + reference_s()) / 2,
        "sim": sim,
        "digest": digest,
        "checks": checks,
    }


def oracle(name, seed, scale):
    """Checks that need a second simulation of the same inputs."""
    workload = WORKLOADS[name]
    n = workload.size(scale)
    workloads.import_repro()
    from repro.scale import ScaleSimulator
    from repro.validation import validate_reproduction

    arrivals, faults = workloads.make_inputs(name, seed, n)
    cut = arrivals[:min(PARITY_SLICE, n)]
    layer, digests = {}, {}
    for engine in ("scalar", "vectorized"):
        simulator = ScaleSimulator(workloads.make_config(
            name, seed, n, faults, arrivals=cut, engine=engine))
        t0 = time.perf_counter()
        digests[engine] = report_digest(simulator.run())
        layer[f"oracle.{engine}_slice_s"] = time.perf_counter() - t0
    checks = [check("engine_parity", digests["scalar"] == digests["vectorized"],
                    f"first {len(cut)} arrivals, scalar vs vectorized reports")]

    report, telemetry = ScaleSimulator(workloads.make_config(
        name, seed, n, faults, arrivals=cut)).run_with_telemetry()
    checks.append(conservation_check(telemetry))
    checks.append(check("telemetry_report_identity",
                        report_digest(report) == digests["vectorized"],
                        "run_with_telemetry vs run on the parity slice"))

    plain_digest = None
    if workload.observed:
        plain = ScaleSimulator(workloads.make_config(
            name, seed, n, faults,
            arrivals if workload.elastic else None)).run()
        plain_digest = report_digest(plain)

    claims = validate_reproduction()
    for key, result in claims.items():
        layer[f"model.claim.{key}_err"] = abs(result.relative_error)
    failing = [key for key, result in claims.items() if not result.holds]
    checks.append(check("paper_claims", not failing,
                        f"{len(claims) - len(failing)}/{len(claims)} hold"
                        + (f"; failing {failing}" if failing else "")))
    return {"layer": layer, "plain_digest": plain_digest, "checks": checks}


def workload_parser(description):
    """Arguments shared by every child entry point."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    return parser


def main(argv=None):
    parser = workload_parser("One end-to-end benchmark child.")
    parser.add_argument("mode", choices=("rep", "oracle"))
    args = parser.parse_args(argv)
    mode = rep if args.mode == "rep" else oracle
    print(json.dumps(mode(args.workload, args.seed, args.scale)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
