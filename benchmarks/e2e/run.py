"""End-to-end simulator benchmark: host time and simulated outcomes.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
        [--reps R] [--trace 0|1] [--scale X] [--json OUT] [--trace-out DIR]

For each workload (all four unless ``--workload`` names one) the user
action runs in a fresh child process per rep, one child at a time and
single-threaded: at least ``--reps`` reps, and more until ``--seconds``
of rep time have passed.  One oracle child then runs the checks that
need a second simulation, and with ``--trace 1`` one traced child
records per-layer host time and writes a Chrome-trace span file.

Host times are reported at a reference host speed: each rep times a
fixed kernel (``child.reference_s``, no simulator code) right before
and right after its action, and its measured seconds are scaled by
``REF_S`` over the mean of the two kernel times.  On a shared host
whose speed varies by tens of percent between processes and over
minutes, the scaled times vary far less between runs than the measured
ones, which are printed beside them.

Every metric is printed by name with its unit.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  The exit code is 1 when a check or child failed, and 2
(with no result line) when the metrics could not be measured at all.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import REF_S, check
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Wall-clock budget of one workload, inside the 180 s a run may take.
BUDGET_S = 165.0
#: Simulated end-to-end metrics.  They are bit-identical per seed but
#: differ between seeds, so the checks and ``compare.py`` gate them
#: exactly and ``BENCHMARK.json`` lists them without a bound.
SIM_E2E = ("sim_tti_p50_ms", "sim_tti_p99_ms", "sim_goodput",
           "sim_throughput_qps")


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def child_env():
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv, env, timeout_s):
    """Run one child to completion; ``(result, error)``."""
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout_s:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"exit {proc.returncode}: {tail[0]}"
    try:
        return json.loads(lines[-1]), ""
    except json.JSONDecodeError:
        return None, f"unparseable output: {lines[-1][:80]}"


def host_metrics(result, n_requests):
    """A rep's end-to-end host metrics, scaled to the reference speed."""
    speed = REF_S / result["ref_s"]
    measured = result["host"]
    wall_s = measured["wall_s"] * speed
    return {"setup_s": measured["setup_s"] * speed, "wall_s": wall_s,
            "host_req_per_s": n_requests / wall_s,
            "peak_rss_mb": measured["peak_rss_mb"]}


def summarize(samples):
    """Median plus quartiles, max and sample count."""
    ordered = sorted(samples)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if len(ordered) > 1 \
        else ordered * 3
    return {"value": statistics.median(ordered), "q1": q1, "q3": q3,
            "max": ordered[-1], "n": len(ordered), "samples": samples}


def summarize_reps(rows):
    return {metric: summarize([row[metric] for row in rows])
            for metric in rows[0]}


def run_workload(name, args, env):
    """All children of one workload, folded into metrics and checks."""
    workload = WORKLOADS[name]
    n_requests = workload.size(args.scale)
    deadline = time.perf_counter() + BUDGET_S
    base = ["--workload", name, "--seed", str(args.seed),
            "--scale", repr(args.scale)]
    errors, reps = [], []
    rep_time = longest = 0.0
    while len(reps) < args.reps or rep_time < args.seconds:
        # Keep room for the oracle and traced children (~a rep each).
        if reps and time.perf_counter() + 3 * longest > deadline:
            break
        start = time.perf_counter()
        result, error = spawn([str(HERE / "child.py"), "rep", *base], env,
                              deadline - start)
        took = time.perf_counter() - start
        rep_time += took
        longest = max(longest, took)
        if result is None:
            errors.append(f"rep {len(reps) + 1}: {error}")
            break
        reps.append(result)
    oracle, error = spawn([str(HERE / "child.py"), "oracle", *base], env,
                          deadline - time.perf_counter())
    if oracle is None:
        errors.append(f"oracle: {error}")
    traced = None
    if args.trace:
        args.trace_out.mkdir(parents=True, exist_ok=True)
        span_file = args.trace_out / f"trace_{name}_seed{args.seed}.json"
        traced, error = spawn(
            [str(HERE / "trace.py"), *base, "--trace-out", str(span_file)],
            env, deadline - time.perf_counter())
        if traced is None:
            errors.append(f"traced rep: {error}")

    checks, host, raw, layer = [], {}, {}, {}
    if reps:
        for result in reps:
            checks += result["checks"]
        digests = {result["digest"] for result in reps}
        same_sim = all(result["sim"] == reps[0]["sim"] for result in reps)
        checks.append(check(
            "reps_bit_identical", len(digests) == 1 and same_sim,
            f"{len(reps)} reps, {len(digests)} distinct report digest(s)"))
        host = summarize_reps([host_metrics(r, n_requests) for r in reps])
        raw = summarize_reps([
            {"setup_s": r["host"]["setup_s"], "wall_s": r["host"]["wall_s"],
             "ref_s": r["ref_s"]} for r in reps])
        layer.update(reps[0]["sim"])
    if oracle is not None:
        checks += oracle["checks"]
        layer.update(oracle["layer"])
        if workload.observed and reps:
            checks.append(check(
                "observed_equals_plain",
                oracle["plain_digest"] == reps[0]["digest"],
                "run_with_monitor report vs plain run() report"))
    if traced is not None:
        checks += traced["checks"]
        layer.update(traced["layer"])
        if reps:
            checks.append(check("traced_equals_untraced",
                                traced["digest"] == reps[0]["digest"],
                                "report digest with wrappers installed"))
            traced_wall = host_metrics(traced, n_requests)["wall_s"]
            layer["trace.overhead_frac"] = \
                traced_wall / host["wall_s"]["value"] - 1.0
    n_children = len(reps) + len(errors) + (oracle is not None) \
        + (traced is not None)
    failed = len(errors) + sum(not c["ok"] for c in checks)
    return {"n_requests": n_requests, "reps": len(reps),
            "host": host, "raw": raw, "layer": layer, "checks": checks,
            "errors": errors,
            "attempted": n_children + len(checks), "failed": failed}


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def render(name, outcome, units):
    """Human-readable block: every metric by name with its unit."""
    lines = [f"== {name}: {outcome['n_requests']} requests, "
             f"{outcome['reps']} cold-start reps =="]
    host, layer = outcome["host"], outcome["layer"]
    if host:
        lines.append(f"  end-to-end, host at reference speed "
                     f"(median [q1, q3] max, n={outcome['reps']}):")
        for metric, stats in host.items():
            lines.append(
                f"    {metric:24s} {fmt(stats['value']):>12s} "
                f"{units.get(metric, ''):6s} [{fmt(stats['q1'])}, "
                f"{fmt(stats['q3'])}] {fmt(stats['max'])}")
        lines.append("  as measured (median): " + ", ".join(
            f"{metric} {fmt(stats['value'])} s"
            for metric, stats in outcome["raw"].items()))
    lines.append(f"    {'error_rate':24s} "
                 f"{fmt(outcome['failed'] / outcome['attempted']):>12s} "
                 f"ratio  ({outcome['failed']} failed of "
                 f"{outcome['attempted']} attempted)")
    if "sim.n_completed" in layer:
        lines.append(f"  end-to-end, simulated "
                     f"(n={layer['sim.n_completed']} completed):")
        for metric in SIM_E2E:
            lines.append(f"    {metric:24s} {fmt(layer[metric]):>12s} "
                         f"{units.get(metric, '')}")
    lines.append("  per-layer:")
    for metric, value in layer.items():
        if metric not in SIM_E2E:
            lines.append(f"    {metric:38s} {fmt(value):>14s} "
                         f"{units.get(metric, '')}")
    lines.append("  checks:")
    tally = {}
    for c in outcome["checks"]:
        entry = tally.setdefault((c["name"], c["ok"]), [0, c["detail"]])
        entry[0] += 1
    for (check_name, ok), (count, detail) in tally.items():
        lines.append(f"    {'ok  ' if ok else 'FAIL'} {check_name} x{count}: "
                     f"{detail}")
    for error in outcome["errors"]:
        lines.append(f"    FAIL {error}")
    return "\n".join(lines)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep adding reps until this much rep time")
    parser.add_argument("--reps", type=int, default=5,
                        help="minimum cold-start reps per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="run the traced child; 1 reports per-layer "
                             "metrics on the last line")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every workload's request count")
    parser.add_argument("--json", type=Path,
                        help="also write full results (quartiles, samples, "
                             "checks) here")
    parser.add_argument("--trace-out", type=Path,
                        default=HERE / "out",
                        help="directory for the Chrome-trace span files")
    args = parser.parse_args(argv)
    if args.reps < 1 or args.scale <= 0 or args.seconds < 0:
        parser.error("--reps must be >= 1, --scale > 0, --seconds >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no simulator sources at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    env = child_env()

    outcomes, metrics, missing = {}, {}, []
    for name in names:
        outcome = outcomes[name] = run_workload(name, args, env)
        print(render(name, outcome, units), flush=True)
        values = {metric: stats["value"]
                  for metric, stats in outcome["host"].items()}
        values.update(outcome["layer"])
        prefix = "" if args.workload else f"{name}."
        for m in wanted:
            if m["name"] in values:
                metrics[prefix + m["name"]] = {"value": values[m["name"]],
                                               "unit": m["unit"]}
            else:
                missing.append(prefix + m["name"])
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"seed": args.seed, "scale": args.scale,
                       "seconds": args.seconds, "workloads": outcomes},
                      fh, indent=1)
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    attempted = sum(o["attempted"] for o in outcomes.values())
    failed = sum(o["failed"] for o in outcomes.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
