"""Golden-pinned monitor exports of the canonical workloads.

``monitor_serve.om`` / ``monitor_serve_autoscale.om`` pin the
timestamped OpenMetrics scrape text (registry exposition plus every
per-instant sample row), and ``monitor_serve_faults.om``,
``monitor_serve_ecc.om`` and ``monitor_serve_autoscale_faults.om`` the
same text for the static chaos, static ECC and elastic chaos golden
workloads; ``monitor_serve_autoscale.html`` pins the
self-contained dashboard; ``diff_serve_self.txt`` pins the differ's
text rendering of a run diffed against itself.  All are
byte-deterministic functions of the golden configs, so any sampling
or cost-model change shows up as a reviewable diff (regenerate
deliberately with ``pytest --update-goldens``).
"""

import pytest

from repro.monitor import (
    bundle_from_run,
    diff_bundles,
    format_diff,
    openmetrics_text,
    render_dashboard,
)
from repro.scale import (
    ScaleSimulator,
    golden_autoscale_config,
    golden_autoscale_fault_config,
)
from repro.serve.simulator import (
    ServingSimulator,
    golden_ecc_config,
    golden_fault_config,
    golden_serve_config,
)

#: Picked up by the golden-freshness CI job via the marker, and by the
#: slow monitor lane via the monitor marker.
pytestmark = [pytest.mark.golden, pytest.mark.monitor]


@pytest.fixture(scope="module")
def serve_run():
    return ServingSimulator(golden_serve_config()).run_with_monitor()


@pytest.fixture(scope="module")
def autoscale_run():
    return ScaleSimulator(golden_autoscale_config()).run_with_monitor()


@pytest.mark.parametrize("name, run", [
    ("monitor_serve_faults.om",
     lambda: ServingSimulator(golden_fault_config()).run_with_monitor()),
    ("monitor_serve_ecc.om",
     lambda: ServingSimulator(golden_ecc_config()).run_with_monitor()),
    ("monitor_serve_autoscale_faults.om",
     lambda: ScaleSimulator(
         golden_autoscale_fault_config()).run_with_monitor()),
], ids=["serve_faults", "serve_ecc", "serve_autoscale_faults"])
def test_monitor_scrape_fault_goldens(name, run, golden):
    _report, _telemetry, monitor = run()
    golden(name, openmetrics_text(monitor))


def test_monitor_scrape_serve_golden(serve_run, golden):
    _report, _telemetry, monitor = serve_run
    golden("monitor_serve.om", openmetrics_text(monitor))


def test_monitor_scrape_autoscale_golden(autoscale_run, golden):
    _report, _telemetry, monitor = autoscale_run
    golden("monitor_serve_autoscale.om", openmetrics_text(monitor))


def test_monitor_dashboard_golden(autoscale_run, golden):
    _report, _telemetry, monitor = autoscale_run
    golden("monitor_serve_autoscale.html",
           render_dashboard(monitor, title="serve_autoscale"))


def test_diff_self_golden(serve_run, golden):
    bundle = bundle_from_run("serve", *serve_run)
    diff = diff_bundles(bundle, bundle)
    golden("diff_serve_self.txt",
           format_diff(diff, "serve", "serve") + "\n")
