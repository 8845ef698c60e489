"""Self-contained run bundles: report metrics + series + span totals.

A :class:`RunBundle` is everything the cross-run differ needs from one
run, serialized to a single JSON file: the report flattened to
suffix-conventional metric names (so the shared tolerance policy in
:mod:`repro.monitor.tolerance` classifies each one exactly as the CI
bench gate would), the monitor's full time series, and the
critical-path stage totals that let the differ attribute a TTI delta
to segment classes.  ``repro serve --bundle-out`` and
``repro monitor <workload> --bundle-out`` write them;
``repro diff <run-a> <run-b>`` consumes them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Union

from .series import RunMonitor, json_field, json_float, json_int, \
    json_object, json_str

__all__ = [
    "RunBundle",
    "bundle_from_run",
    "read_run_bundle",
    "report_metrics",
    "write_run_bundle",
]

#: Bundle schema version, bumped on incompatible layout changes.
BUNDLE_VERSION = 1
#: Every top-level field of a version-1 bundle.
_BUNDLE_FIELDS = ("version", "workload", "engine", "metrics",
                  "stage_totals", "n_completed", "monitor")


def _latency_metrics(prefix: str, stats: Any) -> Dict[str, float]:
    ms = stats.as_ms()
    return {f"{prefix}_{name}_ms": ms[name]
            for name in ("mean", "p50", "p95", "p99", "max")}


def report_metrics(report: Any) -> Dict[str, Any]:
    """Flatten a serve or scale report to suffix-conventional metrics.

    Metric names follow the bench-gate suffix conventions: ``*_qps``
    gets the relative higher-is-better gate, ``*_ms`` the relative
    lower-is-better gate, and everything else (counts, ratios,
    simulated makespans) is an exact model output where any drift is
    reported.
    """
    metrics: Dict[str, Any] = {
        "throughput_qps": report.throughput_qps,
        "makespan_simulated_s": report.makespan_s,
        "slo_attainment": report.slo_attainment,
        "n_completed": report.n_completed,
        "n_batches": report.n_batches,
        "mean_batch_size": report.mean_batch_size,
        "n_timeouts": report.n_timeouts,
        "n_retries": report.n_retries,
        "n_shard_failures": report.n_shard_failures,
        "degraded_requests": report.degraded_requests,
        "n_corruptions_detected": report.n_corruptions_detected,
        "n_sdc_escapes": report.n_sdc_escapes,
        "n_recomputes": report.n_recomputes,
        "n_ecc_corrected": report.n_ecc_corrected,
        "n_ecc_detected": report.n_ecc_detected,
        "n_ecc_miscorrections": report.n_ecc_miscorrections,
    }
    metrics.update(_latency_metrics("tti", report.tti))
    metrics.update(_latency_metrics("retrieval", report.retrieval))
    if hasattr(report, "n_offered"):  # elastic ScaleReport
        metrics.update({
            "n_offered": report.n_offered,
            "n_admitted": report.n_admitted,
            "n_shed": report.n_shed,
            "goodput": report.goodput,
            "pool_min": report.pool_min,
            "pool_max": report.pool_max,
            "pool_final": report.pool_final,
            "n_attaches": report.n_attaches,
            "n_detaches": report.n_detaches,
            "n_failovers": report.n_failovers,
            "peak_burn_rate": report.peak_burn_rate,
        })
    else:  # static ServeReport
        metrics.update({
            "mean_coverage": report.mean_coverage,
            "min_coverage": report.min_coverage,
        })
    return metrics


@dataclass(frozen=True)
class RunBundle:
    """One run, packaged for cross-run diffing."""

    workload: str
    engine: str
    metrics: Dict[str, Any]
    #: Critical-path seconds per segment class (TTI attribution input).
    stage_totals: Dict[str, float]
    n_completed: int
    monitor: RunMonitor = field(repr=False)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": BUNDLE_VERSION,
            "workload": self.workload,
            "engine": self.engine,
            "metrics": dict(self.metrics),
            "stage_totals": dict(self.stage_totals),
            "n_completed": self.n_completed,
            "monitor": self.monitor.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Any) -> "RunBundle":
        """Parse :meth:`to_dict` output; a wrong type, version, or a
        missing or unknown field, at any depth, raises ``ValueError``
        naming its path (e.g. ``monitor.series[0].help``).  Scalars are
        strict JSON: an integer field takes no float, ``bool`` or
        string, a number field no ``bool`` or string."""
        data = json_object(data, "a run bundle")
        version = data.get("version")
        if type(version) is not int or version != BUNDLE_VERSION:
            raise ValueError(
                f"unsupported bundle version {version!r} "
                f"(expected {BUNDLE_VERSION})")
        for name in data:
            if name not in _BUNDLE_FIELDS:
                raise ValueError(f"unknown field {name!r}")
        for name in ("workload", "metrics", "n_completed", "monitor"):
            if name not in data:
                raise ValueError(f"missing field {name!r}")
        totals = json_object(data.get("stage_totals", {}), "stage_totals")
        return cls(
            workload=json_field(data, "", "workload", json_str),
            engine=json_field(data, "", "engine", json_str, ""),
            metrics=dict(json_object(data["metrics"], "metrics")),
            stage_totals={key: json_field(totals, "stage_totals", key,
                                          json_float) for key in totals},
            n_completed=json_field(data, "", "n_completed", json_int),
            monitor=RunMonitor.from_dict(data["monitor"]),
        )


def bundle_from_run(workload: str, report: Any, telemetry: Any,
                    monitor: RunMonitor) -> RunBundle:
    """Package one monitored run (any simulator) into a bundle."""
    from ..telemetry.critical import sum_stage_totals

    config = report.config
    engine = (config.engine if hasattr(config, "engine")
              else config.serve.engine)
    return RunBundle(
        workload=workload,
        engine=str(engine),
        metrics=report_metrics(report),
        stage_totals=dict(sorted(
            sum_stage_totals(telemetry.stage_totals).items())),
        n_completed=int(report.n_completed),
        monitor=monitor,
    )


def write_run_bundle(path: Union[str, Path], bundle: RunBundle) -> str:
    """Serialize a bundle to JSON at ``path``; returns the path."""
    text = json.dumps(bundle.to_dict(), indent=1, sort_keys=False)
    Path(path).write_text(text + "\n")
    return str(path)


def read_run_bundle(path: Union[str, Path]) -> RunBundle:
    """Load a bundle written by :func:`write_run_bundle`."""
    return RunBundle.from_dict(json.loads(Path(path).read_text()))
