"""Cross-run differ: gate equivalence with the CI regression checker."""

import json
import math
import sys
from pathlib import Path

import pytest

from repro.monitor import (
    RunBundle,
    RunMonitor,
    bundle_from_run,
    diff_bundles,
    diff_metrics,
    format_diff,
    read_run_bundle,
    write_run_bundle,
)
from repro.monitor.tolerance import gate_failures
from repro.scale import ScaleConfig, ScaleSimulator, \
    golden_autoscale_config, golden_autoscale_fault_config
from repro.serve.simulator import ServingSimulator, golden_ecc_config, \
    golden_fault_config, golden_integrity_config, golden_serve_config

BENCH_DIR = Path(__file__).resolve().parent.parent.parent / "benchmarks"


def _gate_module():
    """The CI gate script, imported from the benchmarks directory."""
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import check_bench_regression
    finally:
        sys.path.pop(0)
    return check_bench_regression


def _check_regressions(baseline, current, tolerance):
    return _gate_module().check_regressions(baseline, current, tolerance)


@pytest.fixture(scope="module")
def golden_bundle_dict():
    report, telemetry, monitor = \
        ServingSimulator(golden_serve_config()).run_with_monitor()
    return bundle_from_run("serve", report, telemetry, monitor).to_dict()


@pytest.fixture(scope="module")
def serve_baseline():
    return json.loads((BENCH_DIR / "BENCH_serve.json").read_text())


def _perturb(baseline):
    """A copy with one regression, one drift, one new, one missing."""
    current = dict(baseline)
    qps_key = next(k for k in sorted(current)
                   if k.endswith("/throughput_qps") and current[k] > 0)
    exact_key = next(k for k in sorted(current)
                     if k.endswith("/n_shard_failures"))
    missing_key = next(k for k in sorted(current)
                       if k.endswith("/tti_p99_ms"))
    current[qps_key] = baseline[qps_key] * 0.5      # regression
    current[exact_key] = baseline[exact_key] + 7    # exact-metric drift
    del current[missing_key]                        # missing
    current["synthetic/new_metric_qps"] = 1.0       # new
    return current, {qps_key, exact_key, missing_key,
                     "synthetic/new_metric_qps"}


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -0.1])
def test_gate_rejects_out_of_domain_tolerance(serve_baseline, tolerance):
    """A NaN tolerance used to pass every regression, and a negative one
    failed identical runs."""
    current, _touched = _perturb(serve_baseline)
    with pytest.raises(ValueError, match="tolerance must be a finite "
                                         "number >= 0, got "):
        gate_failures(serve_baseline, current, tolerance)


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-0.1"])
def test_bench_gate_cli_rejects_bad_tolerance(capsys, tolerance):
    with pytest.raises(SystemExit) as exc:
        _gate_module().main([f"--tolerance={tolerance}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].endswith(
        f"error: tolerance must be a finite number >= 0, "
        f"got {float(tolerance)!r}")


def test_diff_metrics_matches_ci_gate_on_stored_baseline(serve_baseline):
    """Verdict-for-verdict equivalence with check_bench_regression."""
    current, _touched = _perturb(serve_baseline)
    for tolerance in (0.10, 0.25):
        ci_failures = _check_regressions(serve_baseline, current,
                                         tolerance)
        deltas, failures = diff_metrics(serve_baseline, current,
                                        tolerance=tolerance)
        assert failures == ci_failures
        failed = {d.key for d in deltas
                  if d.verdict in ("fail", "drift", "missing")}
        for line in ci_failures:
            if line.startswith("REGRESSION "):
                assert line.split()[1].rstrip(":") in failed
            elif line.startswith("EXACT-METRIC DRIFT "):
                assert line.split()[2].rstrip(":") in failed


def test_diff_metrics_identical_runs_clean(serve_baseline):
    deltas, failures = diff_metrics(serve_baseline, dict(serve_baseline))
    assert failures == []
    assert all(d.verdict in ("ok", "info") for d in deltas)
    assert {d.key for d in deltas} == set(serve_baseline)


def test_diff_metrics_verdict_taxonomy(serve_baseline):
    current, touched = _perturb(serve_baseline)
    deltas, _failures = diff_metrics(serve_baseline, current)
    by_key = {d.key: d for d in deltas}
    verdicts = {k: by_key[k].verdict for k in touched}
    assert "fail" in verdicts.values()
    assert "drift" in verdicts.values()
    assert "new" in verdicts.values()
    assert "missing" in verdicts.values()


def test_diff_bundles_self_is_clean(tmp_path):
    report, telemetry, monitor = \
        ServingSimulator(golden_serve_config()).run_with_monitor()
    bundle = bundle_from_run("serve", report, telemetry, monitor)
    path = tmp_path / "run.json"
    write_run_bundle(path, bundle)
    again = read_run_bundle(path)
    diff = diff_bundles(bundle, again)
    assert not diff.regressed
    assert diff.failures == ()
    assert diff.tti_delta_ms == 0.0
    assert all(fa == fb for _k, fa, fb in diff.series_deltas)
    assert diff.series_only_a == () and diff.series_only_b == ()


def test_diff_bundles_attributes_tti_to_stages():
    serve = bundle_from_run(
        "serve", *ServingSimulator(golden_serve_config()).run_with_monitor())
    elastic = bundle_from_run(
        "serve_autoscale",
        *ScaleSimulator(golden_autoscale_config()).run_with_monitor())
    diff = diff_bundles(serve, elastic)
    assert diff.tti_attribution, "stage attribution must be populated"
    stages = [stage for stage, _ms in diff.tti_attribution]
    assert len(stages) == len(set(stages))
    # attribution is sorted by descending magnitude
    magnitudes = [abs(ms) for _stage, ms in diff.tti_attribution]
    assert magnitudes == sorted(magnitudes, reverse=True)
    # the per-stage deltas decompose the critical-path delta: their sum
    # tracks the TTI mean delta to within the non-critical residue.
    text = format_diff(diff, "serve", "autoscale")
    assert "attributed to critical-path stages" in text
    assert "serve" in text and "autoscale" in text


def test_format_diff_deterministic_and_reports_failures(serve_baseline):
    current, _touched = _perturb(serve_baseline)
    deltas, failures = diff_metrics(serve_baseline, current)
    from repro.monitor.diff import BundleDiff

    diff = BundleDiff(label_a="base", label_b="cur", deltas=tuple(deltas),
                      failures=tuple(failures), tti_attribution=(),
                      tti_delta_ms=0.0, series_deltas=(),
                      series_only_a=(), series_only_b=())
    assert diff.regressed
    text = format_diff(diff, "base", "cur")
    assert text == format_diff(diff, "base", "cur")
    assert "REGRESSION" in text
    assert "EXACT-METRIC DRIFT" in text


@pytest.mark.parametrize("mutate, message", [
    (lambda data: [data], "a run bundle must be a JSON object, got list"),
    (lambda data: {k: v for k, v in data.items() if k != "metrics"},
     "missing field 'metrics'"),
    (lambda data: dict(data, monitor=[]),
     "monitor must be a JSON object, got list"),
    (lambda data: dict(data, monitor={
        k: v for k, v in data["monitor"].items() if k != "cadence_s"}),
     r"missing field 'monitor\.cadence_s'"),
    (lambda data: dict(data, monitor=dict(data["monitor"], series=[
        {k: v for k, v in data["monitor"]["series"][0].items()
         if k != "help"}])),
     r"missing field 'monitor\.series\[0\]\.help'"),
    # Scalars are strict JSON: nothing is coerced.
    (lambda data: dict(data, n_completed=1.7),
     "n_completed: expected an integer, got 1.7"),
    (lambda data: dict(data, n_completed=True),
     "n_completed: expected an integer, got True"),
    (lambda data: dict(data, n_completed="64"),
     "n_completed: expected an integer, got '64'"),
    (lambda data: dict(data, workload=3),
     "workload: expected a string, got 3"),
    (lambda data: dict(data, engine=None),
     "engine: expected a string, got None"),
    (lambda data: dict(data, stage_totals={"merge": True}),
     r"stage_totals\.merge: expected a number, got True"),
    (lambda data: dict(data, stage_totals=[]),
     "stage_totals must be a JSON object, got list"),
    (lambda data: dict(data, version=True),
     r"unsupported bundle version True \(expected 1\)"),
    (lambda data: dict(data, version=1.0),
     r"unsupported bundle version 1\.0 \(expected 1\)"),
    (lambda data: dict(data, bogus=1), "unknown field 'bogus'"),
    (lambda data: dict(data, monitor=dict(data["monitor"], workload=3)),
     r"monitor\.workload: expected a string, got 3"),
    (lambda data: dict(data, monitor=dict(data["monitor"],
                                          cadence_s="0.01")),
     r"monitor\.cadence_s: expected a number, got '0\.01'"),
    (lambda data: dict(data, monitor=dict(data["monitor"],
                                          instants=[0.0, False])),
     r"monitor\.instants: expected a number, got False"),
    (lambda data: dict(data, monitor=dict(data["monitor"], series=[
        dict(data["monitor"]["series"][0], points=[[0.0, "1"]])])),
     r"monitor\.series\[0\]\.points: expected a number, got '1'"),
    (lambda data: dict(data, monitor=dict(data["monitor"], series=[
        dict(data["monitor"]["series"][0], labels=[["shard", 0]])])),
     r"monitor\.series\[0\]\.labels: expected a string, got 0"),
])
def test_from_dict_names_the_wrong_type_or_missing_field(
        golden_bundle_dict, mutate, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        RunBundle.from_dict(mutate(golden_bundle_dict))


@pytest.mark.parametrize("workload, make_config", [
    ("serve", golden_serve_config),
    ("serve_faults", golden_fault_config),
    ("serve_integrity", golden_integrity_config),
    ("serve_ecc", golden_ecc_config),
    ("serve_autoscale", golden_autoscale_config),
    ("serve_autoscale_faults", golden_autoscale_fault_config),
])
def test_golden_bundles_round_trip_to_equal_objects(tmp_path, workload,
                                                    make_config):
    config = make_config()
    simulator = ScaleSimulator(config) if isinstance(config, ScaleConfig) \
        else ServingSimulator(config)
    bundle = bundle_from_run(workload, *simulator.run_with_monitor())
    assert RunBundle.from_dict(bundle.to_dict()) == bundle
    assert RunBundle.from_dict(json.loads(json.dumps(bundle.to_dict()))) \
        == bundle
    assert RunMonitor.from_dict(bundle.monitor.to_dict()) == bundle.monitor
    path = tmp_path / "run.json"
    write_run_bundle(path, bundle)
    assert read_run_bundle(path) == bundle
