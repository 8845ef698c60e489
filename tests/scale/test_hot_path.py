"""Pins on the event loops' hot-path shortcuts.

* **Positional typed tuples.**  The loops build every
  :class:`~repro.serve.scheduler.ExecutedBatch` and every tick and shed
  :class:`~repro.scale.simulator.ScaleAction` with ``tuple.__new__``,
  skipping the NamedTuple's generated ``__new__``, so nothing checks
  the fields.  Each tuple must list every field, and each field must
  hold a value of its own type and domain, so a value written into the
  wrong position shows.
* **Replayed batch bytes.**  The elastic loop installs no dispatch
  hook; its record replays each batch's slice from the loop's log of
  re-anchors.  Each replayed slice must be the one the batch's service
  time was priced on at dispatch.
"""

import dataclasses
import math

import pytest
from hypothesis import HealthCheck, given, settings

from repro.obs import collecting
from repro.scale import ScaleSimulator, golden_autoscale_config, \
    golden_autoscale_fault_config
from repro.serve.scheduler import OUTCOME_CORRUPTED, OUTCOME_INTERRUPTED, \
    OUTCOME_OK, OUTCOME_TIMEOUT
from repro.serve.simulator import ServingSimulator, golden_fault_config, \
    golden_integrity_config, golden_serve_config

from .test_differential import chaotic_elastic_configs
from .test_simulator import _sdc_autoscale_config

ELASTIC = [golden_autoscale_config, golden_autoscale_fault_config,
           _sdc_autoscale_config]
STATIC = [golden_serve_config, golden_fault_config, golden_integrity_config]
OUTCOMES = {OUTCOME_OK, OUTCOME_TIMEOUT, OUTCOME_INTERRUPTED,
            OUTCOME_CORRUPTED}
KINDS = {"tick", "attach", "warm", "detach", "drained", "shed", "dead"}


def is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def is_time(value):
    return isinstance(value, float) and 0.0 <= value < math.inf


def assert_batches(batches, n_devices):
    assert batches
    last_dispatch = 0.0
    for batch in batches:
        assert len(batch) == len(type(batch)._fields), batch
        assert is_int(batch.shard_id) and 0 <= batch.shard_id < n_devices
        assert is_int(batch.seq) and batch.seq >= 0, batch
        assert is_time(batch.dispatch_s), batch
        assert batch.dispatch_s >= last_dispatch, batch  # dispatch order
        last_dispatch = batch.dispatch_s
        assert is_time(batch.service_s) and batch.service_s > 0, batch
        assert isinstance(batch.request_ids, tuple) and batch.request_ids
        assert all(map(is_int, batch.request_ids)), batch
        assert is_time(batch.head_enqueue_s), batch
        assert batch.head_enqueue_s <= batch.dispatch_s, batch
        assert is_int(batch.attempt) and batch.attempt >= 0, batch
        assert isinstance(batch.multiplier, float), batch
        assert batch.multiplier >= 1.0, batch
        assert batch.outcome in OUTCOMES, batch
        assert type(batch.corrupted) is bool, batch
        assert type(batch.recompute) is bool, batch


def assert_actions(actions, class_names):
    assert actions
    for action in actions:
        assert len(action) == len(type(action)._fields), action
        assert action.kind in KINDS, action
        assert is_time(action.t_s), action
        assert is_int(action.shard_id), action
        assert (action.shard_id == -1) == (action.kind in ("tick", "shed"))
        assert is_int(action.pool_size) and action.pool_size >= 0, action
        assert is_time(action.burn_rate), action
        assert is_time(action.duration_s), action
        assert action.priority == "" or action.kind == "shed", action
        assert action.reason in ("", "failover"), action
        assert isinstance(action.class_burns, tuple), action
        if action.kind == "shed":
            assert action.priority in class_names, action
        if action.kind == "tick":
            assert len(action.class_burns) == len(class_names), action
            assert all(map(is_time, action.class_burns)), action
            assert action.burn_rate == max((0.0,) + action.class_burns)
        else:
            assert action.class_burns == (), action


def assert_elastic_tuples(config):
    sim = ScaleSimulator(config)
    record = sim._run_record(capture=False)
    assert_actions(record.report.actions, record.class_names)
    assert_batches(record.result.batches, sim._pool.capacity)


@pytest.mark.parametrize("make_config", ELASTIC)
def test_elastic_loop_tuples_hold_their_fields(make_config):
    assert_elastic_tuples(make_config())


@pytest.mark.parametrize("make_config", STATIC)
def test_static_loop_batches_hold_their_fields(make_config):
    serve = dataclasses.replace(make_config(), engine="scalar")
    batches = ServingSimulator(serve)._simulate().result.batches
    assert_batches(batches, serve.n_shards)


@settings(deadline=None, max_examples=10, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=chaotic_elastic_configs())
def test_elastic_loop_tuples_hold_their_fields_generated(config):
    assert_elastic_tuples(config)


def test_field_checks_see_swapped_positions():
    # The checks above must see a value in the wrong position.
    record = ScaleSimulator(golden_autoscale_config())._run_record(
        capture=False)
    actions = record.report.actions
    shed = next(a for a in actions if a.kind == "shed")
    swapped = shed._replace(priority=shed.reason, reason=shed.priority)
    with pytest.raises(AssertionError):
        assert_actions([swapped], record.class_names)
    batch = record.result.batches[0]
    swapped = batch._replace(attempt=batch.multiplier,
                             multiplier=batch.attempt)
    with pytest.raises(AssertionError):
        assert_batches([swapped], 8)


@pytest.mark.parametrize("make_config", [golden_autoscale_config,
                                         golden_autoscale_fault_config])
def test_replayed_batch_bytes_match_the_priced_slice(make_config):
    sim = ScaleSimulator(make_config())
    with collecting() as trace:
        plain = sim._run_record(capture=False)
    assert trace.events
    captured = ScaleSimulator(make_config())._run_record(capture=True)
    assert list(plain.batch_bytes) == list(captured.batch_bytes)
    kinds = {action.kind for action in plain.report.actions}
    assert {"warm", "detach"} <= kinds  # the slices really move
    assert len(set(plain.batch_bytes)) > 1
    # Independent of the re-anchor log: the slot's live service table
    # priced each unslowed batch, and only one slice size gives that
    # price.
    pool = sim._pool
    sizes = range(1, sum(pool.base_counts) + 1)
    checked = 0
    for batch, nbytes in zip(plain.result.batches, plain.batch_bytes):
        if batch.multiplier != 1.0 or batch.outcome != OUTCOME_OK:
            continue
        priced = [count for count in sizes
                  if pool.service_seconds(count, batch.batch_size)
                  == batch.service_s]
        assert len(priced) == 1, batch
        assert nbytes == pool.embedding_bytes(priced[0]), batch
        checked += 1
    assert checked > len(plain.result.batches) // 2
