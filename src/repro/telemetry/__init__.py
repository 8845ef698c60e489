"""Request-level causal telemetry over the serving simulator.

Layered on :mod:`repro.obs` (which answers "what did the devices do"),
this package answers "*why was this request slow*": per-query span
trees (:mod:`.spans`), exact critical-path latency attribution
(:mod:`.critical`), and a deterministic SLO metrics pipeline with
Prometheus exposition (:mod:`.metrics`).  Everything is derived
post-hoc from the scheduler's causal record
(:mod:`.build`), so enabling telemetry never changes a simulated
result -- the bit-identity property the test suite pins.

Entry points: ``ServingSimulator.run_with_telemetry()`` returns the
usual report plus a :class:`~repro.telemetry.build.RunTelemetry`
bundle; ``python -m repro.cli spans <workload>`` and
``python -m repro.cli metrics <workload>`` render it from the
command line, with folded-stack flamegraph (:mod:`.flame`) and
Perfetto span-overlay (:mod:`.export`) file outputs.
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "build": (
        "ReconcileReport", "RunTelemetry", "StageTable", "build_run_telemetry",
        "build_serve_metrics", "reconcile_with_trace"),
    "critical": (
        "CriticalPath", "Segment", "conservation_error_cycles",
        "critical_path", "p99_contributors", "stage_attribution"),
    "export": (
        "span_trace_events", "telemetry_chrome_trace",
        "write_telemetry_trace"),
    "flame": ("folded_stacks", "write_flamegraph"),
    "metrics": (
        "DEFAULT_LATENCY_BOUNDS_S", "BurnWindow", "Counter", "Gauge",
        "Histogram", "MetricRegistrationError", "MetricsRegistry",
        "slo_burn_windows"),
    "render": (
        "render_attribution", "render_critical_path", "render_query_trace",
        "render_spans_report"),
    "spans": (
        "SPAN_BACKOFF", "SPAN_BATCH", "SPAN_FAILOVER_WAIT", "SPAN_MERGE",
        "SPAN_PREFILL", "SPAN_QUERY", "SPAN_QUEUE_WAIT", "SPAN_SHARD",
        "STAGE_SPANS", "QueryTrace", "Span"),
})
