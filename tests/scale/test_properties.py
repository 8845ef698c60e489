"""Property suites for the elastic control loop.

The differential layer (``test_differential``) proves the autoscaler-off
path is the static simulator; these properties pin what must hold when
the control loop is *on*, over randomized policies and workloads:

* repeated runs are bit-identical under a fixed seed, including across
  interpreter processes with different ``PYTHONHASHSEED`` values;
* the pool never leaves ``[min_shards, max_shards]``;
* work conservation -- with the shed threshold effectively infinite, no
  request is ever dropped and every one completes exactly once;
* exactly-once completion across scale transitions: each admitted
  request is served once per device in its fan-out set, with no
  duplicates, even when the set changes mid-flight;
* per-class SLO accounting -- the per-class burn windows partition the
  aggregate window exactly (share-weighted class burns sum to the
  global burn), and the run-level class peaks reproduce the global
  peak;
* weight-monotone shedding -- within one arrival instant the admission
  gate never sheds a higher-weight (more protected) arrival while
  admitting a lower-weight one, so shedding cannot starve the
  highest-weight class in favor of background traffic.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor import BurnSignal
from repro.rag.corpus import PAPER_CORPORA
from repro.scale import (
    AdmissionPolicy,
    AutoscalePolicy,
    PriorityClass,
    ScaleConfig,
    ScalePolicy,
    ScaleSimulator,
)
from repro.serve import BatchPolicy, ClosedLoopConfig
from repro.serve.simulator import golden_serve_config

pytestmark = pytest.mark.scale


@st.composite
def elastic_configs(draw):
    min_shards = draw(st.integers(min_value=1, max_value=3))
    max_shards = draw(st.integers(min_value=min_shards + 1, max_value=6))
    initial = draw(st.integers(min_value=min_shards, max_value=max_shards))
    policy = ScalePolicy(
        autoscale=AutoscalePolicy(
            min_shards=min_shards,
            max_shards=max_shards,
            control_interval_s=draw(st.sampled_from([5e-3, 10e-3])),
            scale_up_step=draw(st.integers(min_value=1, max_value=2)),
            cooldown_s=draw(st.sampled_from([0.0, 20e-3])),
        ),
        admission=AdmissionPolicy(
            shed_queue_batches=draw(st.sampled_from([2.0, 4.0, 16.0]))),
    )
    serve = dataclasses.replace(
        golden_serve_config(),
        spec=PAPER_CORPORA["10GB"],
        n_shards=initial,
        batch=BatchPolicy(max_batch=draw(st.integers(min_value=1,
                                                     max_value=8)),
                          max_wait_s=draw(st.sampled_from([0.0, 2e-3]))),
        qps=draw(st.sampled_from([200.0, 1000.0, 3000.0])),
        n_requests=draw(st.integers(min_value=4, max_value=64)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        slo_s=draw(st.sampled_from([0.505, 0.512, 0.600])),
    )
    if draw(st.booleans()):
        n_clients = min(draw(st.integers(min_value=1, max_value=8)),
                        serve.n_requests)
        closed = ClosedLoopConfig(n_clients=n_clients,
                                  think_time_s=draw(
                                      st.sampled_from([1e-3, 10e-3])),
                                  n_requests=serve.n_requests,
                                  seed=serve.seed)
    else:
        closed = None
    return ScaleConfig(serve=serve, policy=policy, closed_loop=closed)


@settings(deadline=None, max_examples=25)
@given(config=elastic_configs())
def test_fixed_seed_runs_are_bit_identical(config):
    first = ScaleSimulator(config).run()
    second = ScaleSimulator(config).run()
    assert first == second
    assert first.actions == second.actions


@settings(deadline=None, max_examples=25)
@given(config=elastic_configs())
def test_pool_never_leaves_its_bounds(config):
    auto = config.policy.autoscale
    report = ScaleSimulator(config).run()
    assert auto.min_shards <= report.pool_min
    assert report.pool_max <= auto.max_shards
    assert report.pool_min <= report.pool_final <= report.pool_max
    for action in report.actions:
        assert auto.min_shards <= action.pool_size <= auto.max_shards


@settings(deadline=None, max_examples=20)
@given(config=elastic_configs())
def test_work_conservation_without_shedding(config):
    """No query may be dropped while the queue is below the shed
    threshold; with the threshold effectively infinite, the admission
    gate must never fire and every offered request must complete."""
    generous = dataclasses.replace(
        config,
        policy=dataclasses.replace(
            config.policy,
            admission=AdmissionPolicy(shed_queue_batches=1e9)))
    report = ScaleSimulator(generous).run()
    assert report.n_shed == 0
    assert report.n_completed == report.n_admitted == report.n_offered
    assert report.goodput == report.slo_attainment


@settings(deadline=None, max_examples=20)
@given(config=elastic_configs())
def test_exactly_once_across_scale_transitions(config):
    record = ScaleSimulator(config)._run_record(capture=False)
    report, result = record.report, record.result
    assert report.n_offered == report.n_admitted + report.n_shed
    assert len(result.records) == report.n_admitted
    served = {}
    for batch in result.batches:
        for req_id in batch.request_ids:
            served.setdefault(req_id, []).append(batch.shard_id)
    for record in result.records:
        assert record.retrieval_done_s is not None
        assert record.retrieval_done_s >= record.arrival_s
        assert len(record.shard_done_s) == record.n_required
        shards = served[record.req_id]
        assert sorted(shards) == sorted(set(shards))  # no duplicates
        assert set(shards) == set(record.shard_done_s)
    dispatches = [batch.dispatch_s for batch in result.batches]
    assert all(b >= a for a, b in zip(dispatches, dispatches[1:]))


@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_class_burn_rates_partition_the_global_burn(data):
    """Per-class windows are an exact partition of one class-blind
    window fed the same events: request and violation counts sum across
    classes, and the share-weighted sum of class burn rates reproduces
    the aggregate burn rate."""
    n_classes = data.draw(st.integers(min_value=1, max_value=4))
    policy = AutoscalePolicy(control_interval_s=0.010)
    per_class = BurnSignal(policy.control_interval_s, 0.1, n_classes)
    aggregate = BurnSignal(policy.control_interval_s, 0.1)
    events = data.draw(st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=0.0099),
                  st.booleans(),
                  st.integers(min_value=0, max_value=n_classes - 1)),
        max_size=40))
    events.sort(key=lambda event: event[0])
    for t_s, violated, cls in events:
        latency = 0.2 if violated else 0.05
        per_class.note_completion(t_s, latency, cls)
        aggregate.note_completion(t_s, latency)
    overdue = data.draw(st.lists(
        st.integers(min_value=0, max_value=5),
        min_size=n_classes, max_size=n_classes))

    windows = per_class.class_windows(0, 0.010, overdue)
    [total] = aggregate.class_windows(0, 0.010, [sum(overdue)])
    assert len(windows) == n_classes
    assert all(w.index == total.index for w in windows)
    assert sum(w.n_requests for w in windows) == total.n_requests
    assert sum(w.n_violations for w in windows) == total.n_violations
    budget = policy.error_budget
    if total.n_requests == 0:
        assert total.burn_rate(budget) == 0.0
        assert all(w.burn_rate(budget) == 0.0 for w in windows)
    else:
        weighted = sum(
            (w.n_requests / total.n_requests) * w.burn_rate(budget)
            for w in windows)
        assert math.isclose(weighted, total.burn_rate(budget),
                            rel_tol=1e-12, abs_tol=1e-12)


@settings(deadline=None, max_examples=20)
@given(config=elastic_configs())
def test_per_class_accounting_partitions_the_run(config):
    report = ScaleSimulator(config).run()
    assert sum(n for _, n in report.completed_by_class) \
        == report.n_completed
    assert sum(n for _, n in report.shed_by_class) == report.n_shed
    names = [cls.name for cls in config.policy.priorities]
    assert [name for name, _ in report.completed_by_class] == names
    assert [name for name, _ in report.shed_by_class] == names
    assert [name for name, _ in report.class_burn_peaks] == names
    # The controller scales on the worst class, so the global peak is
    # exactly the max of the per-class peaks.
    assert report.peak_burn_rate \
        == max(peak for _, peak in report.class_burn_peaks)


@st.composite
def burst_trace_configs(draw):
    """Elastic configs whose arrival traces contain same-instant bursts
    (ties are legal: arrivals must only be non-decreasing), so several
    admission decisions happen at one timestamp under one rising queue
    pressure -- the setting where weight monotonicity is observable."""
    low_weight = draw(st.sampled_from([0.1, 0.25, 0.5]))
    classes = (PriorityClass(name="hi", share=0.5, weight=1.0),
               PriorityClass(name="lo", share=0.5, weight=low_weight))
    policy = ScalePolicy(
        autoscale=AutoscalePolicy(
            min_shards=2, max_shards=4, control_interval_s=5e-3,
            cooldown_s=draw(st.sampled_from([0.0, 20e-3]))),
        admission=AdmissionPolicy(
            shed_queue_batches=draw(st.sampled_from([0.5, 1.0, 2.0]))),
        priorities=classes)
    times = []
    t = 0.0
    for _ in range(draw(st.integers(min_value=3, max_value=6))):
        t += draw(st.sampled_from([5e-4, 2e-3, 8e-3]))
        times.extend([t] * draw(st.integers(min_value=1, max_value=24)))
    serve = dataclasses.replace(
        golden_serve_config(),
        spec=PAPER_CORPORA["10GB"],
        n_shards=2,
        batch=BatchPolicy(max_batch=draw(st.integers(min_value=1,
                                                     max_value=4)),
                          max_wait_s=2e-3),
        n_requests=len(times),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        slo_s=0.512,
    )
    return ScaleConfig(serve=serve, policy=policy, arrivals=tuple(times))


@settings(deadline=None, max_examples=25)
@given(config=burst_trace_configs())
def test_shedding_is_weight_monotone_within_an_instant(config):
    """Shedding is side-effect-free, so consecutive shed decisions at
    one instant see the *same* queue pressure -- and at equal pressure
    the weighted admission rule is monotone: once an arrival of weight
    ``w`` sheds, the next arrivals with weight ``<= w`` must shed too,
    until an admission intervenes.  (An admission CAN reset the
    comparison: admitting may synchronously dispatch a full batch,
    which drains the queue and legitimately re-opens the door for
    lower-weight traffic at the same timestamp.)  The highest-weight
    class is never starved in favor of equal-pressure lower-weight
    traffic."""
    run = ScaleSimulator(config)._run_record(capture=False)
    report = run.report
    admitted = {record.req_id for record in run.result.records}
    weights = [cls.weight for cls in config.policy.priorities]
    arrivals = config.arrivals
    assert report.n_offered == len(arrivals)
    start = 0
    while start < len(arrivals):
        end = start
        while end < len(arrivals) and arrivals[end] == arrivals[start]:
            end += 1
        shed_weight_floor = None
        for req_id in range(start, end):
            weight = weights[run.priorities[req_id]]
            if req_id in admitted:
                assert shed_weight_floor is None \
                    or weight > shed_weight_floor, (
                        f"arrival {req_id} (weight {weight}) admitted at "
                        f"t={arrivals[req_id]} after a weight-"
                        f"{shed_weight_floor} arrival was shed at the "
                        f"same pressure")
                # Admission mutates the queue (and may dispatch), so
                # the pressure the next arrival sees is unrelated.
                shed_weight_floor = None
            else:
                shed_weight_floor = max(shed_weight_floor or 0.0, weight)
        start = end


_HASHSEED_SCRIPT = """\
import json
from repro.scale import ScaleSimulator, golden_autoscale_config

report = ScaleSimulator(golden_autoscale_config()).run()
print(json.dumps({
    "offered": report.n_offered,
    "admitted": report.n_admitted,
    "shed": list(report.shed_by_class),
    "completed": list(report.completed_by_class),
    "makespan": report.makespan_s.hex(),
    "throughput": report.throughput_qps.hex(),
    "goodput": report.goodput.hex(),
    "peak_burn": report.peak_burn_rate.hex(),
    "warmup": report.warmup_total_s.hex(),
    "pool": [report.pool_min, report.pool_max, report.pool_final],
    "utilization": [u.hex() for u in report.shard_utilization],
    "actions": [[a.kind, a.t_s.hex(), a.shard_id, a.pool_size,
                 a.burn_rate.hex(), a.duration_s.hex(), a.priority]
                for a in report.actions],
}, sort_keys=True))
"""


def test_controller_determinism_across_hash_seeds(tmp_path):
    """The full elastic run -- burn-rate ticks, attach/detach schedule,
    shed decisions -- serializes byte-identically under different
    ``PYTHONHASHSEED`` values (no hash-order leaks into control flow)."""
    script = tmp_path / "hashseed_scale.py"
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
