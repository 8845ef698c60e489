"""Continuous time-series observability over the serving simulators.

The telemetry layer (:mod:`repro.telemetry`) answers "*why was this
request slow*" with end-of-run aggregates; this package answers "*how
did the run evolve*": a deterministic streaming view sampled on a
fixed simulated-time cadence (and on every autoscaler control tick)
recording rolling throughput, TTI quantiles via a mergeable
:class:`~repro.monitor.sketch.QuantileSketch`, per-class SLO burn,
pool size, queue depths, shed/retry/failover counters, HBM bytes, and
integrity/ECC verdict counters.

Everything is **derived post-hoc** from the scheduler's causal record
(the same pattern as the telemetry pipeline), so monitoring-off runs
are byte-identical to unmonitored ones and both engines produce
bit-identical series -- properties the differential suite in
``tests/monitor`` pins.  The elastic loop reads the autoscaler's
trailing windows from a :class:`~repro.monitor.signal.BurnSignal`, and
the series builder reads the same class loaded from the completion
record, so the control plane and the observatory provably see one
signal.

Exports: OpenMetrics-style scrape text (:mod:`.openmetrics`, a strict
superset of the PR 6 registry exposition), Perfetto counter tracks
merged into the Chrome-trace export (:mod:`.counters`), a
self-contained static HTML dashboard (:mod:`.dashboard`), and run
bundles with a cross-run regression differ (:mod:`.bundle`,
:mod:`.diff`) sharing the benchmark gate's tolerance policy
(:mod:`.tolerance`).
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "build": (
        "DEFAULT_CADENCE_S", "MONITOR_PREFIX", "build_run_monitor",
        "sample_instants"),
    "bundle": (
        "RunBundle", "bundle_from_run", "read_run_bundle", "report_metrics",
        "write_run_bundle"),
    "counters": ("counter_tracks",),
    "dashboard": ("render_dashboard",),
    "diff": (
        "BundleDiff", "MetricDelta", "diff_bundles", "diff_metrics",
        "format_diff"),
    "openmetrics": ("openmetrics_text",),
    "series": ("MonitorError", "RunMonitor", "Series"),
    "signal": ("BurnSignal",),
    "sketch": ("QuantileSketch", "SketchError"),
})
