"""Command-line experiment runner: ``python -m repro.cli <experiment>``.

Regenerates any of the paper's tables and figures from the terminal
without going through pytest:

.. code-block:: bash

    python -m repro.cli list
    python -m repro.cli table7
    python -m repro.cli fig12 --m 512 --n 512 --k 512
    python -m repro.cli fig14
    python -m repro.cli serve --shards 4 --qps 200
    python -m repro.cli serve --corpus 10GB --fault-plan \\
        examples/fault_plan.json --timeout-ms 8 --failover degraded
    python -m repro.cli serve --autoscale --arrival spike --qps 250 \\
        --policy examples/autoscale_policy.json \\
        --priority-map "interactive=0.8,batch=0.2:0.25"
    python -m repro.cli all

plus the observability entry points: ``trace <workload>`` runs one
workload under the event-trace collector, prints the per-lane text
timeline, and exports a Chrome ``trace_event`` JSON for Perfetto:

.. code-block:: bash

    python -m repro.cli trace histogram
    python -m repro.cli trace rag --trace-out rag.json
    python -m repro.cli trace workloads   # list traceable workloads

and the request-level telemetry pair: ``spans <workload>`` renders the
per-query causal span trees with critical-path attribution (plus
optional flamegraph / Perfetto overlay exports), and ``metrics
<workload>`` emits the run's deterministic metrics registry as
Prometheus text or JSON:

.. code-block:: bash

    python -m repro.cli spans serve
    python -m repro.cli spans serve_faults --query 17 --flame-out f.txt
    python -m repro.cli metrics serve --format prom
    python -m repro.cli metrics serve_integrity --format json --out m.json

and the continuous-monitoring pair: ``monitor <workload>`` samples the
per-tick metric streams (rolling qps, TTI quantiles, SLO burn, pool /
queue depths, shed / retry / failover / HBM counters) and exports the
OpenMetrics scrape text, the static HTML dashboard, the Perfetto
counter-track trace, and the run bundle the cross-run differ consumes;
``diff <run-a> <run-b>`` compares two bundles with the benchmark
gate's tolerance policy and attributes the TTI delta to critical-path
stages:

.. code-block:: bash

    python -m repro.cli monitor serve_autoscale --monitor-out dash.html
    python -m repro.cli monitor serve --scrape-out scrape.om \\
        --bundle-out run_a.json --trace-out counters.json
    python -m repro.cli serve --autoscale --monitor-out dash.html
    python -m repro.cli diff run_a.json run_b.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional

__all__ = ["main", "EXPERIMENTS"]


def _run_table1(args) -> None:
    from .core.params import DEVICE_SPECS

    print("Table 1: device comparison")
    for spec in DEVICE_SPECS.values():
        print(f"  {spec.name:18s} {spec.peak_tops:5.0f} TOPS "
              f"{spec.on_chip_bandwidth_tbs:5.0f} TB/s {spec.tdp_w:5.0f} W "
              f"-> {spec.tops_per_watt:6.2f} TOPS/W")


def _run_fig2(args) -> None:
    from .core.roofline import KernelPoint, RooflineModel
    from .opt.matmul import STAGE_ORDER, run_all_stages
    from .opt.reduction import MatmulShape

    shape = MatmulShape(args.m, args.n, args.k // 16)
    results = run_all_stages(args.m, args.n, args.k, functional=False)
    roofline = RooflineModel()
    print(f"Fig. 2: roofline (ridge at OI {roofline.ridge_point:.1f})")
    for stage in STAGE_ORDER:
        r = results[stage]
        point = KernelPoint(stage, r.operational_intensity,
                            r.performance_ops(shape))
        print(f"  {stage:10s} OI {point.operational_intensity:8.2f} "
              f"{point.performance / 1e9:8.2f} GOPS "
              f"eff {roofline.efficiency(point) * 100:5.1f}%")


def _run_fig12(args) -> None:
    from .core.reporting import format_stacked_breakdown
    from .opt.matmul import STAGE_ORDER, run_all_stages

    results = run_all_stages(args.m, args.n, args.k, functional=False)
    print(f"Fig. 12: {args.m}x{args.n}x{args.k} binary matmul (ms)")
    stages = {stage: results[stage].breakdown_ms for stage in STAGE_ORDER}
    print(format_stacked_breakdown(
        stages, ["LD LHS", "LD RHS", "VR Ops", "ST"]
    ))


def _run_table6(args) -> None:
    from .phoenix.suite import PhoenixSuite

    for row in PhoenixSuite().table6_stats():
        cpu = (f"{row['cpu_instructions'] / 1e9:.1f}B"
               if row["cpu_instructions"] else "--")
        print(f"  {row['app']:18s} {row['input_size']:>14s} CPU {cpu:>7s} "
              f"APU {row['apu_ucode_instructions'] / 1e6:8.2f}M uops")


def _run_table7(args) -> None:
    from .phoenix.suite import PhoenixSuite

    suite = PhoenixSuite()
    print("Table 7: measured vs predicted latency")
    for row in suite.table7_validation():
        print(f"  {row.app:18s} {row.measured_ms:9.2f} ms vs "
              f"{row.predicted_ms:9.2f} ms ({row.error * 100:+.2f}%)")
    print(f"  mean accuracy {suite.mean_accuracy() * 100:.2f}%")


def _run_fig13(args) -> None:
    from .phoenix.suite import PhoenixSuite

    suite = PhoenixSuite()
    for row in suite.fig13_comparison():
        print(f"  {row.app:18s} vs1T {row.speedup_1t():7.2f}x "
              f"vs16T {row.speedup_16t():6.2f}x")
    print(" ", {k: round(v, 1) for k, v in suite.aggregate_speedups().items()})


def _run_table8(args) -> None:
    from .rag.corpus import PAPER_CORPORA
    from .rag.retrieval import APURetriever

    for label, spec in PAPER_CORPORA.items():
        noopt = APURetriever(optimized=False).latency_breakdown(spec)
        opt = APURetriever(optimized=True).latency_breakdown(spec)
        print(f"  {label}: no-opt {noopt.total * 1e3:7.2f} ms, "
              f"all-opts {opt.total * 1e3:6.2f} ms")


def _run_fig14(args) -> None:
    from .rag.corpus import PAPER_CORPORA
    from .rag.pipeline import fig14_comparison

    for entry in fig14_comparison():
        cells = "  ".join(f"{label} {entry.ttft_ms[label]:7.1f}"
                          for label in PAPER_CORPORA)
        print(f"  {entry.platform:14s} {cells}  (TTFT ms)")


def _run_fig15(args) -> None:
    from .rag.energy import fig15_energy_comparison

    for label, point in fig15_energy_comparison().items():
        print(f"  {label}: APU {point.apu_energy.total_j:6.3f} J vs "
              f"GPU {point.gpu_energy_j:6.1f} J -> "
              f"{point.efficiency_ratio:.1f}x")


def _run_batching(args) -> None:
    from .rag.batching import BatchedAPURetrieval
    from .rag.corpus import PAPER_CORPORA

    model = BatchedAPURetrieval()
    spec = PAPER_CORPORA[args.corpus]
    print(f"batched retrieval throughput at {args.corpus}:")
    for point in model.throughput_curve(spec):
        print(f"  batch {point.batch_size:3d}: "
              f"{point.per_query_seconds * 1e3:7.2f} ms/query, "
              f"{point.queries_per_second:7.1f} qps")


def _run_claims(args) -> None:
    from .validation import validate_reproduction

    print("paper claims vs this reproduction:")
    print(f"  {'claim':28s} {'paper':>10s} {'here':>10s} {'err':>8s}  ok")
    for key, result in validate_reproduction().items():
        status = "yes" if result.holds else "NO"
        print(f"  {key:28s} {result.claim.paper_value:10.3f} "
              f"{result.measured:10.3f} {result.relative_error * 100:+7.1f}%  "
              f"{status}")


def _build_scale_config(args, serve_config):
    """The elastic (or shaped-arrival) wrapper around one ServeConfig."""
    from .scale.policy import ScalePolicy, ScalePolicyError, parse_priority_map
    from .scale.simulator import ScaleConfig
    from .serve.workload import ClosedLoopConfig, bursty_arrival_times, \
        diurnal_arrival_times, spike_arrival_times

    if not args.autoscale:
        for flag in ("policy", "priority_map"):
            if getattr(args, flag):
                raise SystemExit(
                    f"--{flag.replace('_', '-')} requires --autoscale")
        if args.clients:
            raise SystemExit("--clients requires --autoscale")
    policy = None
    if args.autoscale:
        try:
            policy = ScalePolicy.load(args.policy) if args.policy \
                else ScalePolicy()
            if args.priority_map:
                import dataclasses

                policy = dataclasses.replace(
                    policy, priorities=parse_priority_map(args.priority_map))
        except (OSError, ScalePolicyError) as exc:
            raise SystemExit(f"bad scale policy: {exc}")
    arrivals = None
    closed_loop = None
    try:
        if args.arrival != "poisson":
            generate = {
                "bursty": bursty_arrival_times,
                "diurnal": diurnal_arrival_times,
                "spike": spike_arrival_times,
            }[args.arrival]
            arrivals = tuple(float(t) for t in generate(
                args.qps, args.requests, args.seed))
        if args.clients:
            closed_loop = ClosedLoopConfig(
                n_clients=args.clients,
                think_time_s=args.think_ms * 1e-3,
                n_requests=args.requests,
                seed=args.seed,
            )
        return ScaleConfig(serve=serve_config, policy=policy,
                           arrivals=arrivals, closed_loop=closed_loop)
    except ValueError as exc:
        raise SystemExit(f"bad serve configuration: {exc}")


def _cadence_s(args) -> Optional[float]:
    """``--cadence-ms`` in seconds (``None``: the workload's default),
    checked before any simulation runs."""
    import math

    if not math.isfinite(args.cadence_ms) or args.cadence_ms < 0:
        raise SystemExit("--cadence-ms must be a finite number >= 0 "
                         "(0 = the workload's default)")
    return args.cadence_ms * 1e-3 if args.cadence_ms else None


def _run_serve(args) -> None:
    import math

    from .ecc.config import ECCConfig
    from .ecc.errors import ECCConfigError
    from .faults.plan import FaultPlan
    from .integrity.config import IntegrityConfig
    from .rag.corpus import PAPER_CORPORA
    from .serve.scheduler import BatchPolicy, RetryPolicy
    from .serve.simulator import ServeConfig

    cadence_s = _cadence_s(args)
    faults = FaultPlan()
    try:
        if args.fault_plan:
            faults = FaultPlan.load(args.fault_plan)
        if args.bit_flip_plan:
            faults = faults.merged_with(FaultPlan.load(args.bit_flip_plan))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"bad fault plan: {exc}")
    if args.scrub_interval_ms and not args.integrity:
        raise SystemExit("--scrub-interval-ms requires --integrity")
    ecc = ECCConfig()
    if args.ecc:
        try:
            ecc = ECCConfig(
                enabled=True,
                tier=args.ecc_tier if args.ecc_tier is not None
                else "secded",
                data_bits=args.ecc_data_bits,
                t=args.ecc_t,
            )
        except ECCConfigError as exc:
            raise SystemExit(f"bad ECC configuration: {exc}")
    elif args.ecc_tier is not None:
        raise SystemExit("--ecc-tier requires --ecc")
    try:
        integrity = IntegrityConfig(
            enabled=True,
            max_recomputes=args.max_recomputes,
            scrub_interval_s=args.scrub_interval_ms * 1e-3,
        ) if args.integrity else IntegrityConfig()
        retry = RetryPolicy(
            timeout_s=math.inf if args.timeout_ms is None
            else args.timeout_ms * 1e-3,
            max_retries=args.max_retries,
            backoff_base_s=args.backoff_ms * 1e-3,
            backoff_cap_s=args.backoff_cap_ms * 1e-3,
        )
        config = ServeConfig(
            spec=PAPER_CORPORA[args.corpus],
            n_shards=args.shards,
            batch=BatchPolicy(max_batch=args.max_batch,
                              max_wait_s=args.max_wait_ms * 1e-3),
            k=args.topk,
            qps=args.qps,
            n_requests=args.requests,
            seed=args.seed,
            slo_s=args.slo_ms * 1e-3,
            faults=faults,
            retry=retry,
            failover=args.failover,
            integrity=integrity,
            ecc=ecc,
            engine=args.engine,
        )
    except ValueError as exc:
        raise SystemExit(f"bad serve configuration: {exc}")
    from .scale.simulator import ScaleSimulator

    scale_config = _build_scale_config(args, config)
    simulator = ScaleSimulator(scale_config)
    if args.monitor_out or args.scrape_out or args.bundle_out:
        workload = "serve_autoscale" if args.autoscale else "serve"
        report, telemetry, monitor = simulator.run_with_monitor(
            cadence_s=cadence_s, workload=workload)
        print(report.format())
        _write_monitor_outputs(args, workload, report, telemetry, monitor)
    else:
        print(simulator.run().format())


def _trace_runners() -> Dict[str, Callable]:
    """Traceable workloads: name -> runner returning the device's total
    cycles (``None`` when the workload builds its device internally)."""
    from .apu.device import APUDevice
    from .core.params import DEFAULT_PARAMS
    from .obs.micro import run_table4_micro, run_table5_micro
    from .phoenix.base import ALL_OPTS
    from .phoenix.suite import PhoenixSuite

    runners: Dict[str, Callable] = {}

    for name, app in PhoenixSuite().apps.items():
        def run_phoenix(app=app):
            device = APUDevice(DEFAULT_PARAMS, functional=False)
            app._latency_program(device, ALL_OPTS)
            return device.total_cycles
        runners[name] = run_phoenix

    def run_rag():
        from .rag.corpus import MiniCorpus
        from .rag.retrieval import APURetriever

        corpus = MiniCorpus(n_chunks=512, dim=64, seed=0)
        APURetriever(optimized=True).retrieve(
            corpus, corpus.sample_query(), k=5)
        return None

    def run_serve():
        from .serve.simulator import ServingSimulator, golden_serve_config

        ServingSimulator(golden_serve_config()).run()
        return None

    def run_serve_faults():
        from .serve.simulator import ServingSimulator, golden_fault_config

        ServingSimulator(golden_fault_config()).run()
        return None

    def run_serve_integrity():
        from .serve.simulator import ServingSimulator, golden_integrity_config

        ServingSimulator(golden_integrity_config()).run()
        return None

    def run_serve_ecc():
        from .serve.simulator import ServingSimulator, golden_ecc_config

        ServingSimulator(golden_ecc_config()).run()
        return None

    def run_serve_autoscale():
        from .scale.simulator import ScaleSimulator, golden_autoscale_config

        ScaleSimulator(golden_autoscale_config()).run()
        return None

    def run_serve_autoscale_faults():
        from .scale.simulator import ScaleSimulator, \
            golden_autoscale_fault_config

        ScaleSimulator(golden_autoscale_fault_config()).run()
        return None

    runners["rag"] = run_rag
    runners["serve"] = run_serve
    runners["serve_faults"] = run_serve_faults
    runners["serve_integrity"] = run_serve_integrity
    runners["serve_ecc"] = run_serve_ecc
    runners["serve_autoscale"] = run_serve_autoscale
    runners["serve_autoscale_faults"] = run_serve_autoscale_faults
    runners["table4"] = lambda: run_table4_micro().total_cycles
    runners["table5"] = lambda: run_table5_micro().total_cycles
    return runners


def _run_trace(args) -> None:
    from .core.params import DEFAULT_PARAMS
    from .obs.collector import collecting
    from .obs.events import LANE_HBM
    from .obs.export import write_chrome_trace
    from .obs.timeline import render_timeline

    workload = args.workload or "histogram"
    runners = _trace_runners()
    if workload == "workloads":
        for name in sorted(runners):
            print(name)
        return
    if workload not in runners:
        raise SystemExit(
            f"unknown trace workload {workload!r}; "
            "run 'trace workloads' to list them")
    if args.trace_events <= 0:
        raise SystemExit("--trace-events must be positive")
    with collecting(capacity=args.trace_events) as trace:
        expected = runners[workload]()

    print(f"trace of {workload!r}:")
    print(render_timeline(trace, clock_hz=DEFAULT_PARAMS.clock_hz))
    if expected is not None:
        core_cycles = sum(cycles for lane, cycles
                          in trace.cycles_by_lane.items() if lane != LANE_HBM)
        ok = abs(core_cycles - expected) <= 1e-6 * max(1.0, expected)
        print(f"conservation: per-lane sum {core_cycles:.0f} vs device total "
              f"{expected:.0f} cycles -> {'OK' if ok else 'MISMATCH'}")
    process_names = None
    if workload in ("serve", "serve_faults", "serve_integrity",
                    "serve_ecc"):
        from .serve.simulator import golden_serve_config

        shards = golden_serve_config().n_shards
        process_names = {i: f"shard {i}" for i in range(shards)}
        process_names[shards] = "host merge"
    elif workload in ("serve_autoscale", "serve_autoscale_faults"):
        from .scale.simulator import golden_autoscale_config

        capacity = golden_autoscale_config().policy.autoscale.max_shards
        process_names = {i: f"device slot {i}" for i in range(capacity)}
        process_names[capacity] = "host merge + control"
    out = args.trace_out or f"trace_{workload}.json"
    path = write_chrome_trace(out, trace, clock_hz=DEFAULT_PARAMS.clock_hz,
                              metadata={"workload": workload},
                              process_names=process_names)
    print(f"chrome trace written to {path} "
          "(open in Perfetto or chrome://tracing)")


#: Serving workloads the telemetry commands accept.
def _telemetry_configs() -> Dict[str, Callable]:
    from .scale.simulator import golden_autoscale_config, \
        golden_autoscale_fault_config
    from .serve.simulator import golden_ecc_config, golden_fault_config, \
        golden_integrity_config, golden_serve_config

    return {
        "serve": golden_serve_config,
        "serve_faults": golden_fault_config,
        "serve_integrity": golden_integrity_config,
        "serve_ecc": golden_ecc_config,
        "serve_autoscale": golden_autoscale_config,
        "serve_autoscale_faults": golden_autoscale_fault_config,
    }


def _telemetry_simulator(config):
    """The simulator matching a telemetry workload config."""
    from .scale.simulator import ScaleConfig, ScaleSimulator
    from .serve.simulator import ServingSimulator

    if isinstance(config, ScaleConfig):
        return ScaleSimulator(config)
    return ServingSimulator(config)


def _telemetry_lanes(config) -> int:
    """Device lanes a telemetry workload's Perfetto export needs."""
    from .scale.simulator import ScaleConfig

    if isinstance(config, ScaleConfig):
        if config.policy is not None:
            return config.policy.autoscale.max_shards
        return config.serve.n_shards
    return config.n_shards


def _telemetry_workload(args):
    """Resolve (and validate) the telemetry workload argument."""
    configs = _telemetry_configs()
    workload = args.workload or "serve"
    if workload == "workloads":
        for name in sorted(configs):
            print(name)
        return None, None
    if workload not in configs:
        raise SystemExit(
            f"unknown telemetry workload {workload!r}; "
            f"choose from {', '.join(sorted(configs))}")
    return workload, configs[workload]()


def _run_spans(args) -> None:
    from .core.params import DEFAULT_PARAMS
    from .obs.collector import collecting
    from .telemetry.build import reconcile_with_trace
    from .telemetry.export import write_telemetry_trace
    from .telemetry.flame import write_flamegraph
    from .telemetry.render import render_attribution, render_critical_path, \
        render_query_trace, render_spans_report

    workload, config = _telemetry_workload(args)
    if workload is None:
        return
    if args.trace_events <= 0:
        raise SystemExit("--trace-events must be positive")
    if args.limit < 0:
        raise SystemExit("--limit must be >= 0 (0 = all)")
    clock = DEFAULT_PARAMS.clock_hz
    with collecting(capacity=args.trace_events) as trace:
        _report, telemetry = \
            _telemetry_simulator(config).run_with_telemetry()
    if args.query is not None:
        try:
            query_trace = telemetry.trace_for(args.query)
        except KeyError:
            raise SystemExit(
                f"no query {args.query} in workload {workload!r} "
                f"(ids 0..{len(telemetry.critical_paths) - 1})")
        print(render_query_trace(query_trace))
        print()
        print(render_critical_path(telemetry.path_for(args.query), clock))
    else:
        limit = None if args.limit == 0 else args.limit
        print(render_spans_report(telemetry.traces, limit=limit))
        print()
        reconcile = reconcile_with_trace(telemetry.traces, trace, clock)
        print(render_attribution(telemetry.critical_paths, clock,
                                 reconcile=reconcile))
    if args.flame_out:
        path = write_flamegraph(args.flame_out, telemetry.traces, clock)
        print(f"flamegraph folded stacks written to {path} "
              "(feed to flamegraph.pl or speedscope)")
    if args.trace_out:
        shards = _telemetry_lanes(config)
        process_names = {i: f"shard {i}" for i in range(shards)}
        process_names[shards] = "host merge"
        path = write_telemetry_trace(
            args.trace_out, trace, telemetry.traces, clock,
            metadata={"workload": workload},
            process_names=process_names)
        print(f"chrome trace with span overlay written to {path} "
              "(open in Perfetto)")


def _run_metrics(args) -> None:
    workload, config = _telemetry_workload(args)
    if workload is None:
        return
    _report, telemetry = _telemetry_simulator(config).run_with_telemetry()
    if args.format == "prom":
        text = telemetry.registry.expose()
    else:
        text = telemetry.registry.snapshot_json() + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"{args.format} metrics for {workload!r} "
              f"written to {args.out}")
    else:
        print(text, end="")


def _write_monitor_outputs(args, workload, report, telemetry,
                           monitor) -> None:
    """Write whichever monitor exports the flags asked for."""
    from .monitor.bundle import bundle_from_run, write_run_bundle
    from .monitor.counters import counter_tracks
    from .monitor.dashboard import render_dashboard
    from .monitor.openmetrics import openmetrics_text

    if args.monitor_out:
        with open(args.monitor_out, "w") as handle:
            handle.write(render_dashboard(monitor))
        print(f"monitor dashboard written to {args.monitor_out} "
              "(self-contained HTML)")
    if args.scrape_out:
        with open(args.scrape_out, "w") as handle:
            handle.write(openmetrics_text(monitor))
        print(f"OpenMetrics scrape text written to {args.scrape_out}")
    if args.bundle_out:
        bundle = bundle_from_run(workload, report, telemetry, monitor)
        write_run_bundle(args.bundle_out, bundle)
        print(f"run bundle written to {args.bundle_out} "
              "(compare with 'diff <run-a> <run-b>')")
    if args.experiment == "monitor" and args.trace_out:
        from .monitor.counters import monitor_process_names
        from .obs.export import write_chrome_trace

        tracks = counter_tracks(monitor)
        path = write_chrome_trace(
            args.trace_out, [], metadata={"workload": workload},
            process_names=monitor_process_names(),
            counters=tracks)
        print(f"Perfetto counter-track trace written to {path} "
              "(open in Perfetto)")


def _run_monitor(args) -> None:
    cadence_s = _cadence_s(args)
    workload, config = _telemetry_workload(args)
    if workload is None:
        return
    simulator = _telemetry_simulator(config)
    report, telemetry, monitor = simulator.run_with_monitor(
        cadence_s=cadence_s, workload=workload)

    print(f"monitor of {workload!r}: {len(monitor.series)} series x "
          f"{len(monitor.instants)} samples at "
          f"{monitor.cadence_s * 1e3:g} ms cadence, "
          f"horizon {monitor.horizon_s:.4f} s")
    for s in monitor.series:
        final = f"{s.final():g}" if s.points else "--"
        print(f"  {s.kind:7s} {s.key:46s} final {final}")
    _write_monitor_outputs(args, workload, report, telemetry, monitor)


def _run_diff(args) -> int:
    from .monitor.bundle import read_run_bundle
    from .monitor.diff import diff_bundles, format_diff
    from .monitor.tolerance import validate_tolerance

    if not args.workload or not args.workload2:
        raise SystemExit("diff needs two run-bundle paths: "
                         "diff <run-a> <run-b>")
    try:
        validate_tolerance(args.tolerance)
    except ValueError as exc:
        raise SystemExit(f"bad --tolerance: {exc}")
    try:
        bundle_a = read_run_bundle(args.workload)
        bundle_b = read_run_bundle(args.workload2)
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"cannot load run bundle: {exc}")
    diff = diff_bundles(bundle_a, bundle_b, tolerance=args.tolerance)
    print(format_diff(diff, label_a=args.workload,
                      label_b=args.workload2), end="")
    return 1 if diff.regressed else 0


EXPERIMENTS: Dict[str, Callable] = {
    "claims": _run_claims,
    "table1": _run_table1,
    "fig2": _run_fig2,
    "fig12": _run_fig12,
    "table6": _run_table6,
    "table7": _run_table7,
    "fig13": _run_fig13,
    "table8": _run_table8,
    "fig14": _run_fig14,
    "fig15": _run_fig15,
    "batching": _run_batching,
    "serve": _run_serve,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["list", "all", "trace", "spans",
                                       "metrics", "monitor", "diff"],
        help="which experiment to run ('trace' runs a workload under "
             "the event-trace collector; 'spans' and 'metrics' run a "
             "serving workload under request-level telemetry; 'monitor' "
             "samples the continuous metric streams; 'diff' compares "
             "two run bundles)",
    )
    parser.add_argument(
        "workload", nargs="?", default=None,
        help="trace/spans/metrics/monitor only: workload to run (for "
             "trace: a Phoenix app, 'rag', 'serve', 'table4', 'table5'; "
             "for spans/metrics/monitor: 'serve', 'serve_faults', "
             "'serve_integrity', 'serve_ecc', 'serve_autoscale', "
             "'serve_autoscale_faults'; 'workloads' lists them); for "
             "diff: the baseline run-bundle path",
    )
    parser.add_argument(
        "workload2", nargs="?", default=None,
        help="diff only: the current run-bundle path",
    )
    parser.add_argument("--query", type=int, default=None,
                        help="spans only: render a single request's "
                             "span tree and critical path")
    parser.add_argument("--limit", type=int, default=8,
                        help="spans only: how many span trees to print "
                             "(0 = all)")
    parser.add_argument("--flame-out", default=None,
                        help="spans only: write folded-stack flamegraph "
                             "lines to this path")
    parser.add_argument("--format", choices=["prom", "json"],
                        default="prom",
                        help="metrics only: exposition format")
    parser.add_argument("--out", default=None,
                        help="metrics only: write the exposition to "
                             "this path instead of stdout")
    parser.add_argument("--trace-out", default=None,
                        help="trace/monitor: Chrome trace JSON output "
                             "path (trace default trace_<workload>.json; "
                             "for monitor, a counter-track trace)")
    parser.add_argument("--monitor-out", default=None,
                        help="monitor/serve: write the self-contained "
                             "HTML dashboard to this path")
    parser.add_argument("--scrape-out", default=None,
                        help="monitor/serve: write the OpenMetrics "
                             "scrape text to this path")
    parser.add_argument("--bundle-out", default=None,
                        help="monitor/serve: write the run bundle (for "
                             "'diff') to this path")
    parser.add_argument("--cadence-ms", type=float, default=0.0,
                        help="monitor/serve: sampling cadence in ms "
                             "(0 = the workload's default: the control "
                             "interval for elastic runs, 10 ms static)")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="diff only: relative tolerance for "
                             "*_qps / *_ms metric gates")
    parser.add_argument("--trace-events", type=int, default=65536,
                        help="trace only: ring-buffer capacity in events")
    parser.add_argument("--m", type=int, default=1024,
                        help="matmul M dimension (fig2/fig12)")
    parser.add_argument("--n", type=int, default=1024,
                        help="matmul N dimension (fig2/fig12)")
    parser.add_argument("--k", type=int, default=1024,
                        help="matmul K dimension in bits (fig2/fig12)")
    parser.add_argument("--corpus", choices=["10GB", "50GB", "200GB"],
                        default="200GB", help="corpus scale (batching/serve)")
    parser.add_argument("--shards", type=int, default=4,
                        help="serve only: number of simulated APU shards")
    parser.add_argument("--qps", type=float, default=100.0,
                        help="serve only: offered Poisson request rate")
    parser.add_argument("--requests", type=int, default=256,
                        help="serve only: number of requests to simulate")
    parser.add_argument("--max-batch", type=int, default=8,
                        help="serve only: dynamic-batch size cap per shard")
    parser.add_argument("--max-wait-ms", type=float, default=2.0,
                        help="serve only: max batch-formation wait (ms)")
    parser.add_argument("--topk", type=int, default=5,
                        help="serve only: results merged per query")
    parser.add_argument("--slo-ms", type=float, default=1000.0,
                        help="serve only: time-to-interactive SLO (ms)")
    parser.add_argument("--seed", type=int, default=0,
                        help="serve only: arrival-process seed")
    parser.add_argument("--fault-plan", default=None,
                        help="serve only: JSON fault plan for a scripted "
                             "chaos run (see repro.faults.FaultPlan)")
    parser.add_argument("--bit-flip-plan", default=None,
                        help="serve only: JSON fault plan of bit_flips to "
                             "merge into the chaos run (silent data "
                             "corruption)")
    parser.add_argument("--integrity", action="store_true",
                        help="serve only: enable ABFT protection (detect "
                             "and recompute corrupted batches)")
    parser.add_argument("--max-recomputes", type=int, default=3,
                        help="serve only: recompute budget per detection "
                             "before the shard fails over")
    parser.add_argument("--scrub-interval-ms", type=float, default=0.0,
                        help="serve only: periodic memory-scrub interval "
                             "(0 disables; requires --integrity)")
    parser.add_argument("--ecc", action="store_true",
                        help="serve only: enable code-based memory "
                             "protection (upsets land in codewords; "
                             "storage and decode costs are charged)")
    parser.add_argument("--ecc-tier", default=None,
                        help="serve only: protection tier, 'secded' "
                             "(the default) or 'bch' (requires --ecc)")
    parser.add_argument("--ecc-t", type=int, default=2,
                        help="serve only: BCH correction strength "
                             "(bits per codeword; ignored by secded)")
    parser.add_argument("--ecc-data-bits", type=int, default=64,
                        help="serve only: codeword payload width in bits "
                             "(a multiple of the 16-bit VR word)")
    parser.add_argument("--autoscale", action="store_true",
                        help="serve only: run the elastic pool with the "
                             "burn-rate autoscaler and admission control")
    parser.add_argument("--policy", default=None,
                        help="serve only: JSON scale-policy bundle "
                             "(see examples/autoscale_policy.json; "
                             "requires --autoscale)")
    parser.add_argument("--priority-map", default=None,
                        help="serve only: priority classes as "
                             "'name=share[:weight],...' (requires "
                             "--autoscale); low-weight classes shed first")
    parser.add_argument("--arrival",
                        choices=["poisson", "bursty", "diurnal", "spike"],
                        default="poisson",
                        help="serve only: arrival-process shape "
                             "(non-Poisson shapes modulate --qps)")
    parser.add_argument("--clients", type=int, default=0,
                        help="serve only: closed-loop client population "
                             "(0 = open loop; requires --autoscale)")
    parser.add_argument("--think-ms", type=float, default=10.0,
                        help="serve only: mean closed-loop think time (ms)")
    parser.add_argument("--failover", choices=["reroute", "degraded"],
                        default="reroute",
                        help="serve only: response to a shard death")
    parser.add_argument("--timeout-ms", type=float, default=None,
                        help="serve only: per-batch timeout (default: none)")
    parser.add_argument("--max-retries", type=int, default=2,
                        help="serve only: consecutive failed attempts "
                             "before a shard is declared dead")
    parser.add_argument("--backoff-ms", type=float, default=1.0,
                        help="serve only: base retry backoff (doubles per "
                             "consecutive failure)")
    parser.add_argument("--backoff-cap-ms", type=float, default=8.0,
                        help="serve only: retry backoff cap")
    from .simcore.engine import DEFAULT_ENGINE, ENGINES

    parser.add_argument("--engine", choices=list(ENGINES),
                        default=DEFAULT_ENGINE,
                        help="serve only, static fault-free runs only: "
                             "simulation backend (the vectorized core "
                             "reports from NumPy columns, bit-identical "
                             "to the scalar reference and ~100x faster); "
                             "fault-plan runs use the scalar event loop on "
                             "either engine and --autoscale runs ignore it")
    return parser


#: Per command, the flags naming a file it writes.
_MONITOR_OUTS = ("monitor_out", "scrape_out", "bundle_out")
_OUTPUT_FLAGS = {"trace": ("trace_out",), "spans": ("flame_out", "trace_out"),
                 "metrics": ("out",), "monitor": _MONITOR_OUTS + ("trace_out",),
                 "serve": _MONITOR_OUTS, "all": _MONITOR_OUTS}


def _check_output_dirs(args) -> None:
    """Exit with one line if an output path is a directory or its
    directory is missing, before any simulation runs."""
    import os

    for dest in _OUTPUT_FLAGS.get(args.experiment, ()):
        path = getattr(args, dest)
        flag = "--" + dest.replace("_", "-")
        if path and os.path.isdir(path):
            raise SystemExit(f"{flag}: {path!r} is a directory")
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise SystemExit(f"{flag}: directory of {path!r} does not exist")


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    _check_output_dirs(args)
    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    if args.experiment == "trace":
        _run_trace(args)
        return 0
    if args.experiment == "spans":
        _run_spans(args)
        return 0
    if args.experiment == "metrics":
        _run_metrics(args)
        return 0
    if args.experiment == "monitor":
        _run_monitor(args)
        return 0
    if args.experiment == "diff":
        return _run_diff(args)
    if args.experiment == "all":
        for name, runner in EXPERIMENTS.items():
            print(f"=== {name} ===")
            runner(args)
        return 0
    EXPERIMENTS[args.experiment](args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
