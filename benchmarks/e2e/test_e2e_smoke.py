"""Smoke tests for the end-to-end simulator benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

The benchmark runs at ``--scale 0.01`` (at most 600 requests per
workload, one rep): every metric named in ``BENCHMARK.json`` must be
emitted with its unit and every output check must pass.
"""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load(name):
    """Import a benchmark module by path (``trace`` shadows the stdlib)."""
    sys.path.insert(0, str(HERE))
    try:
        spec = importlib.util.spec_from_file_location(
            f"e2e_{name}", HERE / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(str(HERE))


def test_scaled_run_emits_every_metric_and_passes_checks(tmp_path):
    out = tmp_path / "e2e.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "0.01",
         "--reps", "1", "--json", str(out), "--trace-out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    result = json.loads(out.read_text())
    for workload in SPEC["workloads"]:
        name = workload["name"]
        outcome = result["workloads"][name]
        assert outcome["n_requests"] <= 3000
        assert outcome["checks"] and all(c["ok"] for c in outcome["checks"])
        for metric in SPEC["end_to_end"]:
            assert metric["name"] in outcome["host"]
            assert re.search(rf"^\s+{re.escape(metric['name'])}\s+\S+\s+"
                             rf"{re.escape(metric['unit'])}\s",
                             proc.stdout, re.MULTILINE), metric
        for metric in SPEC["per_layer"]:
            emitted = last["metrics"][f"{name}.{metric['name']}"]
            assert emitted["unit"] == metric["unit"]
        trace = json.loads(
            (tmp_path / f"trace_{name}_seed0.json").read_text())
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert spans and all(e["dur"] >= 0 for e in spans)


def test_refuses_to_run_without_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    copy = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns(
        "__pycache__", "out"))
    proc = subprocess.run([sys.executable, str(copy / "run.py")],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_verdicts():
    compare = _load("compare")

    def stats(value, spread=0.0):
        return {"value": value, "q1": value * (1 - spread / 2),
                "q3": value * (1 + spread / 2), "samples": [value]}

    assert compare.verdict(stats(1.0), stats(1.05), "lower", 0.1)[0] \
        == "unchanged"
    assert compare.verdict(stats(1.0), stats(1.2), "lower", 0.1)[0] \
        == "regressed"
    assert compare.verdict(stats(1.0), stats(1.2), "higher", 0.1)[0] \
        == "improved"
    assert compare.verdict(stats(1.0, 0.3), stats(1.2), "lower", 0.1)[0] \
        == "unresolved"


def test_tracer_self_time_excludes_children_and_hot_calls():
    trace = _load("trace")
    tracer = trace.Tracer()
    ticks = iter(range(100))
    tracer.clock = lambda: float(next(ticks))

    hot = tracer.counter("layer", lambda: None)
    inner = tracer.span("inner", lambda: hot())
    outer = tracer.span("outer", lambda: (hot(), inner()))
    outer()
    # Clock reads: outer 0; hot 1-2; inner 3; hot 4-5; inner ends 6;
    # outer ends 7.
    assert tracer.total("outer") == 7.0
    assert tracer.total("inner") == 3.0
    assert tracer.total("inner", self_time=True) == 2.0
    assert tracer.total("outer", self_time=True) == 3.0
    assert tracer.counters["layer"].calls == 2
    assert tracer.counters["layer"].seconds == 2.0
