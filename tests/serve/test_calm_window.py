"""The calm window is a shortcut, never a second rule.

A shard machine skips its fault judge for a dispatch that falls inside
the shard's calm window (up, multiplier one, no stuck-at cell, no
unconsumed flip), and skips the availability query in
``maybe_dispatch`` there; the elastic control tick skips the
multiplier query of a calm slot.  With ``FaultInjector.calm_until``
patched to answer "not calm" everywhere, every dispatch is judged and
every query asked -- and each observed output must be bit-identical to
a normal run: the ``ScheduleResult`` (batches, fault log, records,
deaths), the plain and captured reports (elastic actions included), the
trace events and the telemetry.  The goldens also pin that most
dispatches take the shortcut, so it cannot go dead silently.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings

from repro.faults import BitFlipFault, FaultInjector, FaultPlan
from repro.obs import collecting
from repro.scale import ScaleConfig, ScaleSimulator, \
    golden_autoscale_fault_config
from repro.serve.scheduler import BatchPolicy, PoolLoop, ShardMachine
from repro.serve.simulator import ServingSimulator, golden_fault_config, \
    golden_integrity_config
from repro.telemetry import build_run_telemetry

from ..scale.test_differential import chaotic_elastic_configs
from ..simcore.test_differential import serve_configs


def _simulator(config):
    if isinstance(config, ScaleConfig):
        return ScaleSimulator(config)
    return ServingSimulator(config)


def _observe(config):
    """Every observed output of one configuration, and how many
    dispatches reached the fault judge in its captured run."""
    judged = []
    judge = ShardMachine._judge

    def counted(self, *args):
        judged.append(args[0])
        return judge(self, *args)

    with mock.patch.object(ShardMachine, "_judge", counted):
        record = _simulator(config)._run_record(capture=True) \
            if isinstance(config, ScaleConfig) \
            else _simulator(config)._simulate(capture=True)
    result = record.result
    n_judged = len(judged)
    telemetry = build_run_telemetry(record)
    with collecting() as trace:
        plain = _simulator(config).run()
    observed = {
        "batches": result.batches,
        "fault_log": result.fault_log,
        "records": result.records,
        "death_times": result.death_times,
        "busy_seconds": result.busy_seconds,
        "batch_bytes": list(record.batch_bytes),
        "stage_tables": record.stage_tables,
        "tti_by_req": record.tti_by_req,
        "report": record.report,
        "plain_report": plain,
        "trace": trace.events,
        "traces": telemetry.traces,
        "critical_paths": telemetry.critical_paths,
        "metrics": telemetry.registry.expose(),
    }
    return observed, n_judged, len(result.batches)


def _never_calm(self, shard_id, t_s):
    return t_s


def test_batch_ending_on_a_stuck_onset_is_judged():
    # Dyadic times add exactly: the second batch, dispatched at 0.5 for
    # 0.25 s, ends on the stuck-at onset at 0.75, the calm window's
    # half-open end.  It must be judged, and it completes corrupted.
    plan = FaultPlan(bit_flips=(
        BitFlipFault(shard_id=0, t_s=0.75, target="stuck", vr=1, bit=2),))

    def run():
        loop = PoolLoop(1, BatchPolicy(max_batch=1, max_wait_s=0.0),
                        lambda shard_id, size: 0.25,
                        injector=FaultInjector(plan, 1))
        return loop.run([0.0, 0.5]).result()

    result = run()
    assert [(b.dispatch_s, b.corrupted) for b in result.batches] \
        == [(0.0, False), (0.5, True)]
    with mock.patch.object(FaultInjector, "calm_until", _never_calm):
        assert run() == result


def _assert_never_calm_is_identical(config):
    observed, n_judged, n_batches = _observe(config)
    with mock.patch.object(FaultInjector, "calm_until", _never_calm):
        never_calm, n_judged_all, n_batches_all = _observe(config)
    assert n_judged_all == n_batches_all == n_batches
    for name, value in observed.items():
        assert never_calm[name] == value, name
    return n_judged, n_batches


@pytest.mark.parametrize("make_config", [golden_fault_config,
                                         golden_integrity_config,
                                         golden_autoscale_fault_config])
def test_never_calm_golden_runs_are_identical(make_config):
    n_judged, n_batches = _assert_never_calm_is_identical(make_config())
    # The shortcut carries most dispatches on every golden chaos script.
    assert n_judged < 0.25 * n_batches, (n_judged, n_batches)


@settings(derandomize=True, deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large,
                                 HealthCheck.filter_too_much])
@given(case=serve_configs())
def test_never_calm_serve_runs_are_identical(case):
    config, _with_telemetry = case
    assume(config.faults)
    _assert_never_calm_is_identical(config)


@settings(derandomize=True, deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large,
                                 HealthCheck.filter_too_much])
@given(config=chaotic_elastic_configs())
def test_never_calm_elastic_runs_are_identical(config):
    assume(config.serve.faults)
    _assert_never_calm_is_identical(config)
