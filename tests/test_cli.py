"""Tests for the experiment CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, build_parser, main

_SRC = Path(__file__).resolve().parents[1] / "src"

#: A run bundle's valid top level, open for a ``"monitor"`` field.
_BUNDLE_HEAD = ('{"version": 1, "workload": "serve", "metrics": {}, '
                '"n_completed": 0, ')


class TestParser:
    def test_known_experiments_accepted(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_matmul_shape_flags(self):
        args = build_parser().parse_args(
            ["fig12", "--m", "64", "--n", "2048", "--k", "128"])
        assert (args.m, args.n, args.k) == (64, 2048, 128)


class TestExecution:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(EXPERIMENTS)

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "GSI APU" in capsys.readouterr().out

    def test_fig12_with_small_shape(self, capsys):
        assert main(["fig12", "--m", "64", "--n", "2048", "--k", "64"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "opt1+2+3" in out

    def test_table8(self, capsys):
        assert main(["table8"]) == 0
        out = capsys.readouterr().out
        assert "200GB" in out and "all-opts" in out

    def test_fig15(self, capsys):
        assert main(["fig15"]) == 0
        assert "x" in capsys.readouterr().out

    def test_batching_corpus_flag(self, capsys):
        assert main(["batching", "--corpus", "10GB"]) == 0
        assert "qps" in capsys.readouterr().out


class TestServeCommand:
    def test_serve_defaults(self, capsys):
        assert main(["serve", "--requests", "32", "--corpus", "10GB"]) == 0
        out = capsys.readouterr().out
        assert "qps sustained" in out
        assert "shard0" in out and "shard3" in out

    def test_serve_flags(self, capsys):
        assert main(["serve", "--shards", "2", "--qps", "50",
                     "--requests", "16", "--max-batch", "4",
                     "--corpus", "10GB", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "over 2 shard(s)" in out
        assert "50 qps offered" in out

    @pytest.mark.parametrize("slo_ms", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("autoscale", [[], ["--autoscale"]])
    def test_serve_bad_slo_exits_cleanly(self, slo_ms, autoscale):
        with pytest.raises(SystemExit,
                           match="bad serve configuration: slo_s must be "
                                 "positive and finite"):
            main(["serve", "--corpus", "10GB", "--requests", "8",
                  f"--slo-ms={slo_ms}", *autoscale])

    @pytest.mark.parametrize("flag", ["--fault-plan", "--bit-flip-plan"])
    def test_serve_bad_fault_plan_exits_cleanly(self, tmp_path, flag):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text('{"outages": [{"shard_id": 0}]}')
        with pytest.raises(SystemExit,
                           match=r"bad fault plan: outages\[0\]: missing "
                                 r"field 'start_s'"):
            main(["serve", "--corpus", "10GB", "--requests", "8",
                  flag, str(plan_path)])

    def test_serve_mistyped_fault_plan_field_exits_cleanly(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text('{"outages": [{"shard_id": 1.7, '
                             '"start_s": 0.01}]}')
        with pytest.raises(SystemExit,
                           match=r"^bad fault plan: outages\[0\]: field "
                                 r"'shard_id' must be an integer, "
                                 r"got 1\.7$") as exc:
            main(["serve", "--corpus", "10GB", "--requests", "8",
                  "--fault-plan", str(plan_path)])
        assert "\n" not in str(exc.value.code)

    def test_serve_unknown_fault_plan_field_exits_cleanly(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text('{"outages": [{"shard_id": 0, "start_s": 0.1, '
                             '"duration_s": 0.2, '
                             '"recovery_slowdwn": 4.0}]}')
        with pytest.raises(SystemExit,
                           match=r"^bad fault plan: outages\[0\]: unknown "
                                 r"field 'recovery_slowdwn'$") as exc:
            main(["serve", "--corpus", "10GB", "--requests", "8",
                  "--fault-plan", str(plan_path)])
        assert "\n" not in str(exc.value.code)

    @pytest.mark.parametrize("text, message", [
        (None, r"\[Errno 2\] No such file or directory: '.*missing\.json'"),
        ('{"autoscale": null}', "autoscale must be an object, got null"),
        ('{"autoscale": {"bogus": 1}}', "autoscale: unknown field 'bogus'"),
    ])
    def test_serve_bad_policy_exits_cleanly(self, tmp_path, text, message):
        path = tmp_path / "missing.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit,
                           match=f"^bad scale policy: {message}$") as exc:
            main(["serve", "--corpus", "10GB", "--requests", "8",
                  "--autoscale", "--policy", str(path)])
        assert "\n" not in str(exc.value.code)

    @pytest.mark.parametrize("text, message", [
        ("[]", "a run bundle must be a JSON object, got list"),
        ('{"version": 1, "workload": "serve"}', "missing field 'metrics'"),
        (_BUNDLE_HEAD + '"monitor": []}',
         "monitor must be a JSON object, got list"),
        (_BUNDLE_HEAD + '"monitor": {"workload": "serve"}}',
         r"missing field 'monitor\.cadence_s'"),
        (_BUNDLE_HEAD + '"monitor": {"workload": "serve", "cadence_s": 0.01,'
         ' "horizon_s": 1, "series": [{"name": "x", "kind": "gauge"}]}}',
         r"missing field 'monitor\.series\[0\]\.help'"),
    ])
    def test_diff_bad_bundle_exits_cleanly(self, tmp_path, text, message):
        path = tmp_path / "run.json"
        path.write_text(text)
        with pytest.raises(SystemExit,
                           match=f"^cannot load run bundle: {message}$") \
                as exc:
            main(["diff", str(path), str(path)])
        assert "\n" not in str(exc.value.code)

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-0.1"])
    def test_diff_bad_tolerance_exits_before_loading(self, tolerance):
        # The bundle paths do not exist: the tolerance is checked first.
        with pytest.raises(SystemExit,
                           match=r"^bad --tolerance: tolerance must be a "
                                 r"finite number >= 0, got ") as exc:
            main(["diff", "missing-a.json", "missing-b.json",
                  f"--tolerance={tolerance}"])
        assert "\n" not in str(exc.value.code)

    @pytest.mark.parametrize("cadence_ms", ["-5", "nan", "inf"])
    @pytest.mark.parametrize("command", [
        ["monitor", "serve"],
        ["serve", "--corpus", "10GB", "--requests", "8", "--bundle-out"],
    ])
    def test_bad_cadence_exits_before_simulating(self, tmp_path, capsys,
                                                 cadence_ms, command):
        if command[-1] == "--bundle-out":
            command = [*command, str(tmp_path / "run.json")]
        with pytest.raises(SystemExit,
                           match=r"^--cadence-ms must be a finite number "
                                 r">= 0 \(0 = the workload's default\)$") \
                as exc:
            main([*command, f"--cadence-ms={cadence_ms}"])
        assert "\n" not in str(exc.value.code)
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "run.json").exists()

    def test_serve_rejects_bad_shards(self):
        with pytest.raises(SystemExit,
                           match="^bad serve configuration: n_shards must "
                                 "be an integer >= 1, got 0$"):
            main(["serve", "--shards", "0", "--requests", "8",
                  "--corpus", "10GB"])

    @pytest.mark.parametrize("flags", [
        ["--requests", "0"],
        ["--qps", "0"],
        ["--qps", "nan"],
        ["--qps", "inf"],
        ["--shards", "0"],
        ["--seed", "-1"],
        ["--autoscale", "--qps", "0"],
        ["--autoscale", "--qps", "-5"],
        ["--autoscale", "--requests", "0"],
        ["--integrity", "--scrub-interval-ms", "-1"],
        ["--integrity", "--max-recomputes", "-1"],
        ["--autoscale", "--clients", "-2"],
        ["--autoscale", "--clients", "5", "--think-ms", "-1"],
        ["--arrival", "bursty", "--qps", "0"],
    ], ids=" ".join)
    def test_serve_out_of_domain_flag_exits_with_one_line(self, flags):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--corpus", "10GB",
             *flags],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("bad serve configuration: ")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    def test_trace_workloads_lists_serve(self, capsys):
        assert main(["trace", "workloads"]) == 0
        listed = capsys.readouterr().out.split()
        assert "serve" in listed
        assert "serve_integrity" in listed

    def test_serve_bit_flip_plan_with_integrity(self, tmp_path, capsys):
        from repro.faults import FaultPlan
        from repro.faults.plan import BitFlipFault

        plan_path = tmp_path / "flips.json"
        FaultPlan(bit_flips=(
            BitFlipFault(shard_id=1, t_s=0.02, target="vr", vr=4,
                         bit=9, element=5),
        )).save(plan_path)
        assert main(["serve", "--shards", "2", "--qps", "200",
                     "--requests", "16", "--corpus", "10GB",
                     "--bit-flip-plan", str(plan_path),
                     "--integrity", "--scrub-interval-ms", "50"]) == 0
        out = capsys.readouterr().out
        assert "integrity (protected)" in out

    def test_serve_bit_flip_plan_unprotected(self, tmp_path, capsys):
        from repro.faults import FaultPlan
        from repro.faults.plan import BitFlipFault

        plan_path = tmp_path / "flips.json"
        FaultPlan(bit_flips=(
            BitFlipFault(shard_id=1, t_s=0.02, target="vr", vr=4,
                         bit=9, element=5),
        )).save(plan_path)
        assert main(["serve", "--shards", "2", "--qps", "200",
                     "--requests", "16", "--corpus", "10GB",
                     "--bit-flip-plan", str(plan_path)]) == 0
        assert "integrity (UNPROTECTED)" in capsys.readouterr().out

    def test_serve_scrub_requires_integrity(self):
        with pytest.raises(SystemExit, match="--integrity"):
            main(["serve", "--requests", "8", "--corpus", "10GB",
                  "--scrub-interval-ms", "50"])

    def test_trace_serve_integrity_writes_integrity_lane(
            self, tmp_path, capsys):
        out_path = tmp_path / "integrity.json"
        assert main(["trace", "serve_integrity",
                     "--trace-out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "INTEGRITY" in out
        assert "integrity/scrub" in out

    def test_trace_serve_writes_shard_lanes(self, tmp_path, capsys):
        out_path = tmp_path / "serve.json"
        assert main(["trace", "serve", "--trace-out", str(out_path)]) == 0
        assert "serve/shard0" in capsys.readouterr().out

        import json

        payload = json.loads(out_path.read_text())
        names = {e["args"]["name"] for e in payload["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert {"shard 0", "shard 3", "host merge"} <= names


class TestSpansCommand:
    def test_spans_workloads_lists_golden_configs(self, capsys):
        assert main(["spans", "workloads"]) == 0
        out = capsys.readouterr().out
        for workload in ("serve", "serve_faults", "serve_integrity"):
            assert workload in out

    def test_spans_unknown_workload_rejected(self):
        with pytest.raises(SystemExit, match="unknown"):
            main(["spans", "nope"])

    def test_spans_report_with_attribution(self, capsys):
        assert main(["spans", "serve", "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "span trees: 64 queries" in out
        assert "critical-path attribution" in out
        assert "reconciliation:" in out and "OK" in out

    def test_spans_negative_limit_rejected(self, capsys):
        with pytest.raises(SystemExit,
                           match=r"^--limit must be >= 0 \(0 = all\)$") \
                as exc:
            main(["spans", "serve", "--limit", "-1"])
        assert "\n" not in str(exc.value.code)
        assert capsys.readouterr().out == ""

    def test_spans_single_query_shows_critical_path(self, capsys):
        assert main(["spans", "serve", "--query", "3"]) == 0
        out = capsys.readouterr().out
        assert "query 3:" in out
        assert "cycle error" in out

    def test_spans_unknown_query_rejected(self):
        with pytest.raises(SystemExit, match="query"):
            main(["spans", "serve", "--query", "100000"])

    def test_spans_flame_out(self, tmp_path, capsys):
        out_path = tmp_path / "serve.folded"
        assert main(["spans", "serve", "--limit", "1",
                     "--flame-out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines and all(line.rsplit(" ", 1)[1].isdigit()
                             for line in lines)

    def test_spans_trace_out_overlays_requests(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "overlay.json"
        assert main(["spans", "serve", "--limit", "1",
                     "--trace-out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["otherData"]["n_query_traces"] == 64
        names = {e["args"]["name"] for e in payload["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert "requests" in names


class TestOutputPaths:
    @pytest.mark.parametrize("command, flag", [
        (["trace", "histogram"], "--trace-out"),
        (["spans", "serve"], "--flame-out"),
        (["spans", "serve"], "--trace-out"),
        (["metrics", "serve"], "--out"),
        (["monitor", "serve"], "--monitor-out"),
        (["monitor", "serve"], "--scrape-out"),
        (["monitor", "serve"], "--bundle-out"),
        (["monitor", "serve"], "--trace-out"),
        (["serve", "--corpus", "10GB", "--requests", "8"], "--monitor-out"),
        (["serve", "--corpus", "10GB", "--requests", "8"], "--scrape-out"),
        (["serve", "--corpus", "10GB", "--requests", "8"], "--bundle-out"),
    ], ids=lambda value: value if isinstance(value, str) else value[0])
    def test_missing_output_directory_exits_before_running(
            self, tmp_path, capsys, command, flag):
        path = tmp_path / "missing" / "out.txt"
        with pytest.raises(SystemExit) as exc:
            main([*command, flag, str(path)])
        assert exc.value.code == (
            f"{flag}: directory of {str(path)!r} does not exist")
        with pytest.raises(SystemExit) as exc:
            main([*command, flag, str(tmp_path)])
        assert exc.value.code == f"{flag}: {str(tmp_path)!r} is a directory"
        assert capsys.readouterr().out == ""


class TestMetricsCommand:
    def test_metrics_prom_output(self, capsys):
        assert main(["metrics", "serve"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_requests_total counter" in out
        assert "repro_requests_total 64" in out

    def test_metrics_json_output(self, capsys):
        import json

        assert main(["metrics", "serve", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["repro_requests_total"]["kind"] == "counter"

    def test_metrics_fault_workload_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "faults.prom"
        assert main(["metrics", "serve_faults",
                     "--out", str(out_path)]) == 0
        text = out_path.read_text()
        assert "repro_shard_deaths_total" in text
        assert "repro_slo_burn_rate" in text


class TestECCFlags:
    def test_serve_ecc_defaults_to_secded(self, capsys):
        assert main(["serve", "--requests", "16", "--corpus", "10GB",
                     "--ecc"]) == 0
        out = capsys.readouterr().out
        assert "ecc (secded, 64b codewords)" in out

    def test_serve_ecc_bch_tier(self, capsys):
        assert main(["serve", "--requests", "16", "--corpus", "10GB",
                     "--ecc", "--ecc-tier", "bch", "--ecc-t", "3"]) == 0
        out = capsys.readouterr().out
        assert "ecc (bch t=3, 64b codewords)" in out

    def test_ecc_tier_requires_ecc(self):
        with pytest.raises(SystemExit, match="--ecc-tier requires --ecc"):
            main(["serve", "--requests", "8", "--corpus", "10GB",
                  "--ecc-tier", "bch"])

    def test_bad_tier_exits_cleanly(self):
        with pytest.raises(SystemExit,
                           match="bad ECC configuration: unknown ECC tier"):
            main(["serve", "--requests", "8", "--corpus", "10GB",
                  "--ecc", "--ecc-tier", "parity"])

    def test_bad_geometry_exits_cleanly(self):
        with pytest.raises(SystemExit, match="bad ECC configuration"):
            main(["serve", "--requests", "8", "--corpus", "10GB",
                  "--ecc", "--ecc-data-bits", "63"])

    def test_bad_strength_exits_cleanly(self):
        with pytest.raises(SystemExit, match="bad ECC configuration"):
            main(["serve", "--requests", "8", "--corpus", "10GB",
                  "--ecc", "--ecc-tier", "bch", "--ecc-t", "0"])

    def test_trace_workloads_lists_serve_ecc(self, capsys):
        assert main(["trace", "workloads"]) == 0
        assert "serve_ecc" in capsys.readouterr().out.split()

    def test_trace_serve_ecc_writes_integrity_lane(self, tmp_path,
                                                   capsys):
        import json

        out_path = tmp_path / "ecc.json"
        assert main(["trace", "serve_ecc",
                     "--trace-out", str(out_path)]) == 0
        assert "INTEGRITY" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        names = {e.get("name") for e in payload["traceEvents"]
                 if e.get("ph") == "X"}
        assert {"integrity_ecc_correct", "integrity_ecc_detect",
                "integrity_ecc_miscorrect"} <= names

    def test_metrics_serve_ecc_exposes_verdict_counters(self, capsys):
        assert main(["metrics", "serve_ecc"]) == 0
        out = capsys.readouterr().out
        assert "repro_ecc_corrected_total" in out
        assert "repro_ecc_miscorrections_total" in out

    def test_metrics_serve_omits_ecc_counters_when_off(self, capsys):
        assert main(["metrics", "serve"]) == 0
        assert "repro_ecc" not in capsys.readouterr().out
