"""Differential proofs for the run monitor.

Two acceptance properties from the observatory design:

* **Monitoring off is byte-identical.**  ``run_with_monitor`` derives
  everything post hoc from the causal record, so the report, the trace
  events, the span renderings, and the metrics exposition it returns
  are byte-identical to a plain ``run_with_telemetry`` of the same
  config -- the monitor cannot perturb the run it observes.
* **The monitor is engine-invariant.**  The scalar and vectorized
  engines produce bit-identical causal records, so the derived monitor
  series (every point of every series, the exposition, the dashboard,
  the counter tracks) must be bit-identical too on the static serve /
  fault / integrity configs.  (Elastic configs run one event loop
  whatever the engine flag says; ``tests/scale`` pins that.)
"""

import dataclasses

import pytest

from repro.monitor import counter_tracks, openmetrics_text, render_dashboard
from repro.scale import (
    ScaleSimulator,
    golden_autoscale_config,
    golden_autoscale_fault_config,
)
from repro.serve.simulator import (
    ServingSimulator,
    golden_fault_config,
    golden_integrity_config,
    golden_serve_config,
)

pytestmark = pytest.mark.monitor

STATIC_CONFIGS = {
    "serve": golden_serve_config,
    "faults": golden_fault_config,
    "integrity": golden_integrity_config,
}
ELASTIC_CONFIGS = {
    "autoscale": golden_autoscale_config,
    "autoscale_faults": golden_autoscale_fault_config,
}
ENGINES = ("scalar", "vectorized")


def _static_pair(name, engine):
    return dataclasses.replace(STATIC_CONFIGS[name](), engine=engine)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(STATIC_CONFIGS))
def test_static_monitoring_off_byte_identity(name, engine):
    config = _static_pair(name, engine)
    plain_report, plain_telemetry = \
        ServingSimulator(config).run_with_telemetry()
    mon_report, mon_telemetry, _monitor = \
        ServingSimulator(config).run_with_monitor()
    assert mon_report == plain_report
    assert mon_report.format() == plain_report.format()
    assert mon_telemetry.registry.expose() == \
        plain_telemetry.registry.expose()
    assert mon_telemetry.traces == plain_telemetry.traces


@pytest.mark.parametrize("name", sorted(ELASTIC_CONFIGS))
def test_elastic_monitoring_off_byte_identity(name):
    # Elastic runs ignore the engine flag; tests/scale pins that.
    config = ELASTIC_CONFIGS[name]()
    plain_report, plain_telemetry = \
        ScaleSimulator(config).run_with_telemetry()
    mon_report, mon_telemetry, _monitor = \
        ScaleSimulator(config).run_with_monitor()
    assert mon_report == plain_report
    assert mon_report.format() == plain_report.format()
    assert mon_telemetry.registry.expose() == \
        plain_telemetry.registry.expose()
    assert mon_telemetry.traces == plain_telemetry.traces


@pytest.mark.parametrize("name", sorted(STATIC_CONFIGS))
def test_static_monitor_engine_invariant(name):
    monitors = {}
    for engine in ENGINES:
        config = _static_pair(name, engine)
        _r, _t, monitors[engine] = \
            ServingSimulator(config).run_with_monitor()
    scalar, vectorized = monitors["scalar"], monitors["vectorized"]
    assert scalar.instants == vectorized.instants
    assert scalar.series == vectorized.series
    assert openmetrics_text(scalar) == openmetrics_text(vectorized)
    assert render_dashboard(scalar) == render_dashboard(vectorized)
    assert counter_tracks(scalar) == counter_tracks(vectorized)


def test_monitor_rerun_bit_identical():
    """Two monitored runs of the same config are bit-identical."""
    first = ScaleSimulator(golden_autoscale_config()).run_with_monitor()
    second = ScaleSimulator(golden_autoscale_config()).run_with_monitor()
    assert first[2] == second[2]
    assert openmetrics_text(first[2]) == openmetrics_text(second[2])
