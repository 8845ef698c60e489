"""Property tests for the discrete-event serving scheduler.

The hypothesis suite drives random arrival traces, shard counts, and
batching policies through :class:`DiscreteEventScheduler` and checks
the scheduling invariants:

* every admitted request completes exactly once (per shard and overall);
* no batch exceeds ``max_batch``;
* batch formation respects ``max_wait_s`` (an under-full batch is never
  dispatched before its head has waited out the window, and a waiting
  head is picked up by ``max(deadline, device free)``);
* FIFO order holds within a shard;
* batches on one shard never overlap in time;
* the whole simulation is bit-deterministic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scale.simulator import ScaleAction, ScaleSimulator, \
    golden_autoscale_config
from repro.serve.scheduler import BatchPolicy, DiscreteEventScheduler, \
    ExecutedBatch
from repro.serve.workload import trace_arrivals

#: Slack for float comparisons on *derived* bounds (sums of different
#: orderings); same-expression comparisons in the scheduler are exact.
EPS = 1e-9


def make_service(base_s: float, inc_s: float):
    """A deterministic affine batch cost: ``base + (B - 1) * inc``."""

    def service(shard_id, batch_size):
        del shard_id
        return base_s + (batch_size - 1) * inc_s

    return service


arrival_gaps = st.lists(
    st.floats(min_value=0.0, max_value=5e-3, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=50,
)
policies = st.builds(
    BatchPolicy,
    max_batch=st.integers(min_value=1, max_value=7),
    max_wait_s=st.floats(min_value=0.0, max_value=8e-3, allow_nan=False),
)
shard_counts = st.integers(min_value=1, max_value=5)
service_bases = st.floats(min_value=1e-4, max_value=6e-3)
service_incs = st.floats(min_value=0.0, max_value=1e-3)


def run_case(gaps, n_shards, policy, base_s, inc_s):
    requests = trace_arrivals(np.cumsum(gaps).tolist())
    scheduler = DiscreteEventScheduler(n_shards, policy,
                                       make_service(base_s, inc_s))
    return requests, scheduler.run(requests)


@settings(deadline=None, max_examples=60)
@given(gaps=arrival_gaps, n_shards=shard_counts, policy=policies,
       base_s=service_bases, inc_s=service_incs)
def test_scheduler_invariants(gaps, n_shards, policy, base_s, inc_s):
    requests, result = run_case(gaps, n_shards, policy, base_s, inc_s)
    by_arrival = [r.req_id for r in
                  sorted(requests, key=lambda r: (r.arrival_s, r.req_id))]

    # -- every request completes exactly once -------------------------
    assert len(result.records) == len(requests)
    for record in result.records:
        assert record.retrieval_done_s is not None
        assert set(record.shard_done_s) == set(range(n_shards))
        assert record.retrieval_done_s == max(record.shard_done_s.values())
        assert record.retrieval_done_s >= record.arrival_s

    for shard_id in range(n_shards):
        batches = [b for b in result.batches if b.shard_id == shard_id]
        batches.sort(key=lambda b: b.seq)

        # -- exactly once per shard, FIFO within the shard ------------
        served = [rid for b in batches for rid in b.request_ids]
        assert served == by_arrival

        prev_complete = 0.0
        for batch in batches:
            # -- batch size cap ---------------------------------------
            assert 1 <= batch.batch_size <= policy.max_batch

            # -- no overlap on one device -----------------------------
            assert batch.dispatch_s >= prev_complete - EPS

            # -- max-wait respected -----------------------------------
            deadline = batch.head_enqueue_s + policy.max_wait_s
            if batch.batch_size < policy.max_batch:
                # Under-full batches only launch once the window closes.
                assert batch.dispatch_s >= deadline - EPS
            # A waiting head is picked up as soon as the window closes
            # or the device frees up, whichever is later.
            assert batch.dispatch_s <= max(deadline, prev_complete) + EPS
            prev_complete = batch.complete_s


@settings(deadline=None, max_examples=25)
@given(gaps=arrival_gaps, n_shards=shard_counts, policy=policies,
       base_s=service_bases, inc_s=service_incs)
def test_scheduler_is_bit_deterministic(gaps, n_shards, policy, base_s,
                                        inc_s):
    _, first = run_case(gaps, n_shards, policy, base_s, inc_s)
    _, second = run_case(gaps, n_shards, policy, base_s, inc_s)
    assert first.batches == second.batches
    assert first.records == second.records
    assert first.busy_seconds == second.busy_seconds


class TestSchedulerEdges:
    def test_max_wait_zero_dispatches_immediately(self):
        policy = BatchPolicy(max_batch=8, max_wait_s=0.0)
        scheduler = DiscreteEventScheduler(1, policy, make_service(1e-3, 0))
        result = scheduler.run(trace_arrivals([0.0]))
        (batch,) = result.batches
        assert batch.dispatch_s == 0.0
        assert batch.batch_size == 1

    def test_full_batch_skips_the_wait(self):
        policy = BatchPolicy(max_batch=2, max_wait_s=1.0)
        scheduler = DiscreteEventScheduler(1, policy, make_service(1e-3, 0))
        result = scheduler.run(trace_arrivals([0.0, 1e-4]))
        (batch,) = result.batches
        assert batch.batch_size == 2
        assert batch.dispatch_s == pytest.approx(1e-4)

    def test_backlog_batches_on_device_free(self):
        """Requests queued behind a busy device batch up at completion."""
        policy = BatchPolicy(max_batch=4, max_wait_s=0.0)
        scheduler = DiscreteEventScheduler(1, policy, make_service(1e-2, 0))
        result = scheduler.run(
            trace_arrivals([0.0, 1e-3, 2e-3, 3e-3, 4e-3]))
        first, second = result.batches
        assert first.request_ids == (0,)
        assert second.request_ids == (1, 2, 3, 4)
        assert second.dispatch_s == pytest.approx(first.complete_s)

    def test_arrivals_pop_before_simultaneous_events(self):
        """An arrival on a max-wait deadline or on a batch completion is
        queued before that event fires.  Dyadic times make every tie
        exact: r1 lands on r0's deadline (0.25) and joins its batch; r3
        lands on that batch's completion (0.75) and rides with r2, which
        had waited out its deadline behind the busy device."""
        policy = BatchPolicy(max_batch=2, max_wait_s=0.25)
        scheduler = DiscreteEventScheduler(2, policy, make_service(0.5, 0))
        result = scheduler.run(
            trace_arrivals([0.0, 0.25, 0.375, 0.75]))
        assert [(b.shard_id, b.request_ids, b.dispatch_s, b.complete_s)
                for b in result.batches] == [
            (0, (0, 1), 0.25, 0.75), (1, (0, 1), 0.25, 0.75),
            (0, (2, 3), 0.75, 1.25), (1, (2, 3), 0.75, 1.25)]
        assert [r.retrieval_done_s for r in result.records] \
            == [0.75, 0.75, 1.25, 1.25]

    def test_invalid_policy_rejected(self):
        for bad in (0, -3, 1.5, True):
            with pytest.raises(ValueError):
                BatchPolicy(max_batch=bad)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_s=-1e-3)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_s=float("nan"))

    def test_invalid_shards_rejected(self):
        for bad in (0, -1, 2.5, True):
            with pytest.raises(ValueError):
                DiscreteEventScheduler(bad, BatchPolicy(),
                                       make_service(1e-3, 0))

    def test_empty_stream_rejected(self):
        scheduler = DiscreteEventScheduler(1, BatchPolicy(),
                                           make_service(1e-3, 0))
        with pytest.raises(ValueError):
            scheduler.run([])

    def test_nonpositive_service_time_rejected(self):
        scheduler = DiscreteEventScheduler(1, BatchPolicy(),
                                           lambda s, b: 0.0)
        with pytest.raises(ValueError):
            scheduler.run(trace_arrivals([0.0]))


class TestRecordContract:
    """The per-event records are immutable typed tuples whose ``repr``
    -- which report digests and goldens depend on -- is pinned."""

    BATCH = ExecutedBatch(1, 2, 0.5, 0.25, (3, 4), 0.125)
    ACTION = ScaleAction("tick", 0.005, pool_size=2, burn_rate=1.5,
                         class_burns=(1.5, 0.0))

    def test_repr_is_pinned(self):
        assert repr(self.BATCH) == (
            "ExecutedBatch(shard_id=1, seq=2, dispatch_s=0.5, "
            "service_s=0.25, request_ids=(3, 4), head_enqueue_s=0.125, "
            "attempt=0, multiplier=1.0, outcome='ok', corrupted=False, "
            "recompute=False)")
        assert repr(self.ACTION) == (
            "ScaleAction(kind='tick', t_s=0.005, shard_id=-1, "
            "pool_size=2, burn_rate=1.5, duration_s=0.0, priority='', "
            "reason='', class_burns=(1.5, 0.0))")

    @pytest.mark.parametrize("record, name", [
        (BATCH, "service_s"), (BATCH, "outcome"),
        (ACTION, "kind"), (ACTION, "burn_rate")])
    def test_records_are_immutable(self, record, name):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)

    def test_batch_properties(self):
        assert self.BATCH.batch_size == 2
        assert self.BATCH.complete_s == 0.75
        assert self.BATCH.succeeded
        assert not self.BATCH._replace(outcome="timeout").succeeded

    def test_field_order_and_defaults(self):
        assert ExecutedBatch._fields == (
            "shard_id", "seq", "dispatch_s", "service_s", "request_ids",
            "head_enqueue_s", "attempt", "multiplier", "outcome",
            "corrupted", "recompute")
        assert ExecutedBatch._field_defaults == {
            "attempt": 0, "multiplier": 1.0, "outcome": "ok",
            "corrupted": False, "recompute": False}
        assert ScaleAction._fields == (
            "kind", "t_s", "shard_id", "pool_size", "burn_rate",
            "duration_s", "priority", "reason", "class_burns")
        assert ScaleAction._field_defaults == {
            "shard_id": -1, "pool_size": 0, "burn_rate": 0.0,
            "duration_s": 0.0, "priority": "", "reason": "",
            "class_burns": ()}
        # Positional and keyword construction agree.
        assert self.BATCH == ExecutedBatch(
            shard_id=1, seq=2, dispatch_s=0.5, service_s=0.25,
            request_ids=(3, 4), head_enqueue_s=0.125)

    def test_elastic_action_log_is_deterministic(self):
        config = golden_autoscale_config()
        first = ScaleSimulator(config).run().actions
        again = ScaleSimulator(config).run().actions
        assert len(first) > 0
        assert all(isinstance(action, ScaleAction) for action in first)
        assert again == first
