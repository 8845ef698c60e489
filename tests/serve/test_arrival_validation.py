"""Explicit arrival streams pass one shared validator everywhere.

``ScaleConfig.arrivals``, :func:`trace_arrivals`, the schedulers'
request ordering and ``VectorizedScheduler.run_arrays`` all call
:func:`validate_arrival_times`, so a malformed stream ends in the same
typed error on both engines instead of engine-specific misbehaviour.
The non-finite cases are pinned regressions; before the shared check,
on a static 10 GB / 2-shard config:

* ``(0.001, nan, 0.003)`` hung the vectorized scan forever and gave the
  scalar engine a report for 3 requests;
* ``(0.001, 0.003, nan)`` raised a bare ``RuntimeError`` on scalar and
  reported ``tti.p99_s = nan`` on vectorized;
* ``(0.001, 0.003, inf)`` reported ``makespan_s = inf`` on both.
"""

import math

import numpy as np
import pytest

from repro.rag.corpus import PAPER_CORPORA
from repro.scale import ScaleConfig, ScaleConfigError, ScaleSimulator
from repro.serve import (
    BatchPolicy,
    Request,
    ServeConfig,
    ServingSimulator,
    trace_arrivals,
)
from repro.serve.workload import WorkloadConfigError, validate_arrival_times
from repro.simcore import ENGINES, VectorizedScheduler

NON_FINITE = {
    "nan_mid": (0.001, math.nan, 0.003),
    "nan_last": (0.001, 0.003, math.nan),
    "inf_last": (0.001, 0.003, math.inf),
}

MALFORMED = dict(NON_FINITE, empty=(), negative=(-1e-3, 0.0),
                 unsorted=(2e-3, 1e-3), ninf_first=(-math.inf, 0.0))


def _config(engine: str) -> ServeConfig:
    return ServeConfig(spec=PAPER_CORPORA["10GB"], n_shards=2,
                       engine=engine)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(NON_FINITE))
class TestNonFiniteArrivals:
    def test_scale_config_rejects(self, name, engine):
        with pytest.raises(ScaleConfigError, match="finite"):
            ScaleConfig(serve=_config(engine), arrivals=NON_FINITE[name])

    def test_simulator_rejects_requests(self, name, engine):
        requests = [Request(req_id=i, arrival_s=t)
                    for i, t in enumerate(NON_FINITE[name])]
        with pytest.raises(WorkloadConfigError, match="finite"):
            ServingSimulator(_config(engine)).run(requests)

    def test_simulator_rejects_arrays(self, name, engine):
        times = np.asarray(NON_FINITE[name])
        with pytest.raises(WorkloadConfigError, match="finite"):
            ServingSimulator(_config(engine)).run(times)


@pytest.mark.parametrize("name", sorted(MALFORMED))
class TestSharedValidator:
    def test_trace_arrivals_rejects(self, name):
        with pytest.raises(WorkloadConfigError):
            trace_arrivals(MALFORMED[name])

    def test_run_arrays_rejects(self, name):
        scheduler = VectorizedScheduler(2, BatchPolicy(),
                                        lambda shard, size: 1e-3 * size)
        with pytest.raises(WorkloadConfigError):
            scheduler.run_arrays(np.asarray(MALFORMED[name]))

    def test_scale_config_rejects(self, name):
        with pytest.raises(ScaleConfigError):
            ScaleConfig(serve=_config("scalar"), arrivals=MALFORMED[name])


def test_errors_are_value_errors():
    assert issubclass(WorkloadConfigError, ValueError)
    assert issubclass(ScaleConfigError, ValueError)


def test_validator_accepts_ties_and_zero():
    times = validate_arrival_times((0, 0.0, 1e-3, 1e-3))
    assert times.dtype == np.float64
    assert times.tolist() == [0.0, 0.0, 1e-3, 1e-3]


def test_validator_accepts_iterators():
    assert validate_arrival_times(iter([0.5, 1.0])).tolist() == [0.5, 1.0]


@pytest.mark.parametrize("bad", [[[0.0, 1.0]], ["soon"], [None]])
def test_validator_rejects_non_numeric_shapes(bad):
    with pytest.raises(WorkloadConfigError):
        validate_arrival_times(bad)


@pytest.mark.parametrize("engine", ENGINES)
def test_valid_trace_runs_on_both_engines(engine):
    """The same finite stream is accepted and fully served."""
    config = ScaleConfig(serve=_config(engine), arrivals=(1e-3, 2e-3, 3e-3))
    report = ScaleSimulator(config).run()
    assert report.n_completed == 3
    assert math.isfinite(report.makespan_s)
