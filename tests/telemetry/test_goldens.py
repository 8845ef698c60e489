"""Golden-pinned telemetry renderings of the canonical serve workloads.

``spans_serve.txt`` pins the full span-tree report plus the run-level
critical-path attribution; ``metrics_serve.prom`` pins the Prometheus
exposition of the metrics registry.  ``spans_serve_faults.txt`` /
``metrics_serve_faults.prom`` and ``spans_serve_integrity.txt`` /
``metrics_serve_integrity.prom`` pin the same renderings of the golden
chaos and SDC workloads; the fault spans reach far enough into the run
to show slowdown spans labelled with their injector ``source``.  All
are byte-deterministic functions of the golden configs, so any
cost-model or scheduler change that moves a single simulated float
shows up as a reviewable diff (regenerate deliberately with
``pytest --update-goldens``).
"""

import pytest

from repro.core.params import DEFAULT_PARAMS
from repro.serve.simulator import (
    ServingSimulator,
    golden_fault_config,
    golden_integrity_config,
    golden_serve_config,
)
from repro.telemetry import render_attribution, render_spans_report

#: The golden-freshness CI job regenerates every ``-m golden`` test;
#: new golden modules are picked up by the marker, not a file list.
pytestmark = pytest.mark.golden


#: The first slowdown spans of the fault golden start at query 10.
FAULT_SPAN_LIMIT = 28


def spans_text(telemetry, limit: int = 8) -> str:
    return (render_spans_report(telemetry.traces, limit=limit)
            + "\n\n"
            + render_attribution(telemetry.critical_paths,
                                 DEFAULT_PARAMS.clock_hz)
            + "\n")


@pytest.fixture(scope="module")
def serve_telemetry():
    return ServingSimulator(golden_serve_config()).run_with_telemetry()


@pytest.fixture(scope="module")
def fault_telemetry():
    return ServingSimulator(golden_fault_config()).run_with_telemetry()


@pytest.fixture(scope="module")
def integrity_telemetry():
    return ServingSimulator(golden_integrity_config()).run_with_telemetry()


def test_spans_golden(serve_telemetry, golden):
    _report, telemetry = serve_telemetry
    golden("spans_serve.txt", spans_text(telemetry))


def test_metrics_golden(serve_telemetry, golden):
    _report, telemetry = serve_telemetry
    golden("metrics_serve.prom", telemetry.registry.expose())


def test_fault_spans_golden(fault_telemetry, golden):
    _report, telemetry = fault_telemetry
    text = spans_text(telemetry, limit=FAULT_SPAN_LIMIT)
    assert "source=recovery" in text
    golden("spans_serve_faults.txt", text)


def test_fault_metrics_golden(fault_telemetry, golden):
    _report, telemetry = fault_telemetry
    golden("metrics_serve_faults.prom", telemetry.registry.expose())


def test_integrity_spans_golden(integrity_telemetry, golden):
    _report, telemetry = integrity_telemetry
    golden("spans_serve_integrity.txt", spans_text(telemetry))


def test_integrity_metrics_golden(integrity_telemetry, golden):
    _report, telemetry = integrity_telemetry
    golden("metrics_serve_integrity.prom", telemetry.registry.expose())
