"""A finished run holds data, not callbacks.

Every public simulator action runs with Python's cyclic garbage
collector paused (:func:`repro.serve.record.collector_paused`).  That
is only free when a run leaves no reference cycle behind: the event
loop drops its driver closures and the machine's hooks when it ends,
and no simulator hook refers back to its simulator, so everything a
run leaves is freed by reference counting.  Here, with the collector
off, each configuration's simulator runs every public action
(telemetry span trees included), and the results and the simulator are
dropped; ``gc.collect()`` must then find nothing.

The pause must also hand the collector back as the caller had it:
enabled again after a normal return and after an exception raised
inside a run, kept off by a nested pause, and left off when the caller
had turned it off.
"""

import dataclasses
import gc
import math
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

from repro.rag.corpus import PAPER_CORPORA
from repro.scale import AutoscalePolicy, ScaleConfig, ScalePolicy, \
    ScaleSimulator, golden_autoscale_config, golden_autoscale_fault_config
from repro.serve.record import collector_paused
from repro.serve.scheduler import PoolLoop
from repro.serve.simulator import ServingSimulator, SliceCostModel, \
    golden_ecc_config, golden_fault_config, golden_integrity_config, \
    golden_serve_config
from repro.serve.workload import ClosedLoopConfig

from ..scale.test_differential import chaotic_elastic_configs
from ..simcore.test_differential import serve_configs

ACTIONS = ("run", "run_with_telemetry", "run_with_monitor")


def _simulator(config):
    if isinstance(config, ScaleConfig):
        return ScaleSimulator(config)
    return ServingSimulator(config)


def _closed_loop_config() -> ScaleConfig:
    return ScaleConfig(
        serve=dataclasses.replace(golden_serve_config(),
                                  spec=PAPER_CORPORA["10GB"], n_shards=2,
                                  slo_s=0.520),
        policy=ScalePolicy(
            autoscale=AutoscalePolicy(min_shards=2, max_shards=4)),
        closed_loop=ClosedLoopConfig(n_clients=8, think_time_s=5e-3,
                                     n_requests=48, seed=0))


@pytest.fixture(autouse=True)
def _restore_collector():
    """Every test leaves the collector as it found it, pass or fail."""
    enabled = gc.isenabled()
    yield
    gc.set_debug(0)
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _assert_acyclic(config) -> None:
    """Run every public action and drop the results and the simulator:
    with the collector off throughout, nothing may be left as cyclic
    garbage.  The simulator is built before the collector stops, since
    a first construction may calibrate a memoized model, and that
    calibration is no run."""
    simulator = _simulator(config)
    gc.collect()
    gc.disable()
    for action in ACTIONS:
        result = getattr(simulator, action)()
        if action != "run":
            result[1].traces  # the lazy span trees, built and dropped
        del result
    del simulator
    gc.set_debug(gc.DEBUG_SAVEALL)
    found = gc.collect()
    kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    gc.garbage.clear()
    assert found == 0, (
        f"{found} objects left as cyclic garbage: {kinds.most_common(12)}")


@pytest.mark.parametrize("make_config", [
    golden_fault_config, golden_integrity_config, golden_ecc_config,
    golden_autoscale_config, golden_autoscale_fault_config,
    _closed_loop_config,
    # The columnar path of a plain vectorized run.
    lambda: dataclasses.replace(golden_serve_config(), engine="vectorized"),
], ids=["faults", "integrity", "ecc", "autoscale", "autoscale_faults",
        "closed_loop", "vectorized"])
def test_golden_runs_leave_no_cyclic_garbage(make_config):
    _assert_acyclic(make_config())


@settings(derandomize=True, deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(case=serve_configs())
def test_generated_static_runs_leave_no_cyclic_garbage(case):
    config, _with_telemetry = case
    _assert_acyclic(config)


@settings(derandomize=True, deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(config=chaotic_elastic_configs())
def test_generated_elastic_runs_leave_no_cyclic_garbage(config):
    _assert_acyclic(config)


# -- the pause ---------------------------------------------------------

#: ``(simulator, action)`` over every public action; both configs run
#: the event loop, so a spy on ``PoolLoop.run`` sees inside each one.
_CASES = [pytest.param(make_config, action, id=f"{kind}-{action}")
          for kind, make_config in (("static", golden_fault_config),
                                    ("elastic", golden_autoscale_config))
          for action in ACTIONS]


@pytest.mark.parametrize("make_config, action", _CASES)
def test_action_pauses_and_then_restores_the_collector(make_config, action):
    simulator = _simulator(make_config())
    inside = []
    loop_run = PoolLoop.run

    def spy(self, *args, **kwargs):
        inside.append(gc.isenabled())
        return loop_run(self, *args, **kwargs)

    gc.enable()
    with mock.patch.object(PoolLoop, "run", spy):
        getattr(simulator, action)()
    assert inside == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("make_config, action", _CASES)
def test_action_restores_the_collector_after_an_exception(make_config,
                                                          action):
    simulator = _simulator(make_config())
    gc.enable()
    # Patched after construction: the first dispatch prices its batch
    # at NaN, which the shard machine rejects.
    with mock.patch.object(SliceCostModel, "service_seconds",
                           lambda self, count, size: math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            getattr(simulator, action)()
    assert gc.isenabled()


def test_nested_pauses_keep_the_collector_off_until_the_outermost():
    simulator = ServingSimulator(golden_fault_config())
    gc.enable()
    with collector_paused():
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
        report = simulator.run()
        assert not gc.isenabled()
    assert gc.isenabled()
    assert simulator.run() == report


@pytest.mark.parametrize("make_config", [golden_fault_config,
                                         golden_autoscale_config])
def test_a_collector_the_caller_turned_off_stays_off(make_config):
    simulator = _simulator(make_config())
    gc.disable()
    for action in ACTIONS:
        getattr(simulator, action)()
        assert not gc.isenabled(), action
    with pytest.raises(ZeroDivisionError):
        with collector_paused():
            1 / 0
    assert not gc.isenabled()
