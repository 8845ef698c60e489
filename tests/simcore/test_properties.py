"""Property tests for the vectorized core's internal invariants.

Equality with the scalar loop (``test_differential``) is the headline
guarantee; these properties hold *independently*, so a future
regression that broke both engines the same way would still be caught:

* each shard dispatches in time order, never overlapping its own
  batches;
* every request is served exactly once on every shard, FIFO within
  each shard, and resolves when its last shard completes;
* repeated runs are bit-identical, including across interpreter
  processes with different ``PYTHONHASHSEED`` values (nothing in the
  core may iterate a hash-ordered container into an ordered artifact).
"""

import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import BatchPolicy, DiscreteEventScheduler, \
    poisson_arrival_times, poisson_arrivals
from repro.simcore import ArraySchedule, VectorizedScheduler

from .test_differential import _assert_columns_match


def _service(shard_id: int, batch_size: int) -> float:
    return (0.7 * (1.0 + 0.13 * shard_id) + 0.11 * (batch_size - 1)) * 1e-3


def _columns_json(arrays):
    """Every column of a columnar run, floats as exact hex, as JSON."""
    return json.dumps({
        name: [v.hex() if isinstance(v, float) else v
               for v in column.tolist()]
        for name, column in vars(arrays).items()
        if isinstance(column, np.ndarray)}, sort_keys=True)


@st.composite
def runs(draw):
    n_shards = draw(st.integers(min_value=1, max_value=8))
    policy = BatchPolicy(
        max_batch=draw(st.integers(min_value=1, max_value=16)),
        max_wait_s=draw(st.sampled_from([0.0, 1e-3, 2e-3])),
    )
    qps = draw(st.sampled_from([100.0, 600.0, 2500.0]))
    n_requests = draw(st.integers(min_value=1, max_value=100))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return n_shards, policy, qps, n_requests, seed


@settings(deadline=None, max_examples=40)
@given(run=runs())
def test_event_order_and_completion_invariants(run):
    n_shards, policy, qps, n_requests, seed = run
    arrivals = poisson_arrival_times(qps, n_requests, seed)
    arrays = VectorizedScheduler(n_shards, policy, _service).run_arrays(
        arrivals)

    # Shard-major columns.
    assert np.all(np.diff(arrays.batch_shard) >= 0)
    shard_done = np.full(n_requests, -np.inf)
    for shard_id in range(n_shards):
        rows = np.flatnonzero(arrays.batch_shard == shard_id)
        dispatch = arrays.batch_dispatch_s[rows]
        service = arrays.batch_service_s[rows]
        starts = arrays.batch_start[rows]
        sizes = arrays.batch_size[rows]
        # Per-shard dispatch order: one batch at a time on the device,
        # each dispatched once its last member has arrived.
        assert np.all(dispatch[1:] >= dispatch[:-1] + service[:-1])
        assert np.all(arrivals[starts + sizes - 1] <= dispatch)
        assert np.all((sizes >= 1) & (sizes <= policy.max_batch))
        # Exactly once, FIFO: the shard's batches tile the stream.
        ends = starts + sizes
        assert starts[0] == 0 and ends[-1] == n_requests
        assert np.array_equal(starts[1:], ends[:-1])
        # Busy seconds: the scalar loop's sequential += order.
        assert arrays.busy_seconds[shard_id] == sum(service.tolist())
        np.maximum(shard_done, np.repeat(dispatch + service, sizes),
                   out=shard_done)

    # Every request resolves, after arrival, when its last shard does.
    assert np.array_equal(arrays.retrieval_done_s, shard_done)
    assert np.all(arrays.latency_s() >= 0.0)
    assert arrays.req_ids.tolist() == list(range(n_requests))


@settings(deadline=None, max_examples=20)
@given(run=runs())
def test_repeated_runs_are_bit_identical(run):
    n_shards, policy, qps, n_requests, seed = run
    arrivals = poisson_arrival_times(qps, n_requests, seed)
    first = VectorizedScheduler(n_shards, policy, _service).run_arrays(
        arrivals)
    second = VectorizedScheduler(n_shards, policy, _service).run_arrays(
        arrivals.copy())
    assert _columns_json(first) == _columns_json(second)


@settings(deadline=None, max_examples=20)
@given(run=runs())
def test_run_arrays_matches_run(run):
    n_shards, policy, qps, n_requests, seed = run
    arrivals = poisson_arrival_times(qps, n_requests, seed)
    sched = VectorizedScheduler(n_shards, policy, _service)
    arrays = sched.run_arrays(arrivals)
    assert isinstance(arrays, ArraySchedule)
    assert arrays.n_requests == n_requests
    assert np.all(arrays.latency_s() >= 0.0)
    assert arrays.n_events \
        == n_requests * n_shards + 2 * arrays.n_batches
    # The columns hold exactly what the scalar run() produces.
    reference = DiscreteEventScheduler(n_shards, policy, _service).run(
        poisson_arrivals(qps, n_requests, seed))
    _assert_columns_match(arrays, reference)


_HASHSEED_SCRIPT = "import json\nimport numpy as np\n\n" \
    + inspect.getsource(_columns_json) + """
from repro.serve import BatchPolicy, poisson_arrival_times
from repro.simcore import VectorizedScheduler

def service(shard_id, batch_size):
    return (0.7 * (1.0 + 0.13 * shard_id)
            + 0.11 * (batch_size - 1)) * 1e-3

arrays = VectorizedScheduler(
    5, BatchPolicy(max_batch=6, max_wait_s=1e-3),
    service).run_arrays(poisson_arrival_times(900.0, 200, 3))
print(_columns_json(arrays))
"""


@pytest.mark.simcore
def test_determinism_across_hash_seeds(tmp_path):
    """The serialized run is byte-identical under different
    ``PYTHONHASHSEED`` values (no hash-order leaks into results)."""
    script = tmp_path / "hashseed_run.py"
    script.write_text(_HASHSEED_SCRIPT)
    outputs = []
    for hash_seed in ("0", "1", "424242"):
        import repro
        src_dir = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH", "")) if p)
        proc = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True,
            text=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    json.loads(outputs[0])  # sanity: it is one valid JSON document
