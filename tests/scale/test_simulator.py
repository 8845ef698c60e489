"""Elastic-simulator invariants on the canonical autoscale workload."""

import dataclasses
import math

import pytest

from repro.faults import BitFlipFault, FaultPlan
from repro.integrity import IntegrityConfig
from repro.monitor import BurnSignal
from repro.obs import LANE_SCALE, collecting
from repro.rag.corpus import CorpusSpec, PAPER_CORPORA
from repro.scale import (
    AutoscalePolicy,
    BurnRateController,
    ElasticAPUDevicePool,
    PoolBoundsError,
    ScaleConfig,
    ScaleConfigError,
    ScalePolicy,
    ScaleReport,
    ScaleSimulator,
    golden_autoscale_config,
    golden_autoscale_fault_config,
)
from repro.serve import ClosedLoopConfig, RetryPolicy, ServeConfig, \
    ServeReport
from repro.serve.simulator import ShardServiceModel, \
    golden_fault_config, golden_integrity_config, golden_serve_config
from repro.simcore.elastic import OverdueTracker

#: Every constructor that classifies completions against the SLO.
SLO_CONSUMERS = {
    "ServeConfig": lambda slo_s: ServeConfig(
        spec=PAPER_CORPORA["10GB"], slo_s=slo_s),
    "BurnSignal": lambda slo_s: BurnSignal(window_s=0.010, slo_s=slo_s),
    "OverdueTracker": lambda slo_s: OverdueTracker(slo_s, 1),
}


@pytest.mark.parametrize("slo_s", [math.nan, math.inf, -math.inf, 0.0,
                                   -1e-3])
@pytest.mark.parametrize("consumer", sorted(SLO_CONSUMERS))
def test_slo_must_be_positive_and_finite(consumer, slo_s):
    # A NaN SLO never counts a violation, so it used to pass silently
    # and leave the elastic loop reading zero burn on a failing run.
    with pytest.raises(ValueError, match="slo_s must be positive"):
        SLO_CONSUMERS[consumer](slo_s)


def _sdc_autoscale_config():
    """Elastic run with SDC upsets + ABFT but no outages or stalls."""
    base = golden_autoscale_config()
    serve = dataclasses.replace(
        base.serve,
        faults=FaultPlan(bit_flips=(
            BitFlipFault(shard_id=0, t_s=0.080, target="vr", vr=2,
                         bit=7, element=96),
            BitFlipFault(shard_id=1, t_s=0.140, target="vr", vr=6,
                         bit=13, element=1024),
        )),
        retry=RetryPolicy(timeout_s=0.012, max_retries=2,
                          backoff_base_s=1e-3, backoff_cap_s=8e-3),
        integrity=IntegrityConfig(enabled=True, max_recomputes=3,
                                  scrub_interval_s=0.050, scrub_vrs=8),
    )
    return dataclasses.replace(base, serve=serve)


ELASTIC_CONFIGS = {
    "plain": golden_autoscale_config,
    "faults": golden_autoscale_fault_config,
    "sdc": _sdc_autoscale_config,
}


def _elastic_artifacts(config):
    """Everything one elastic config exposes, minus the config itself."""

    def report_fields(report):
        return {field.name: getattr(report, field.name)
                for field in dataclasses.fields(report)
                if field.name != "config"}

    def telemetry_bytes(report, telemetry):
        return (report_fields(report), report.format(), telemetry.traces,
                telemetry.critical_paths, telemetry.registry.expose())

    record = ScaleSimulator(config)._run_record(capture=False)
    report = record.report
    with collecting() as trace:
        ScaleSimulator(config).run()
    *monitored, monitor = ScaleSimulator(config).run_with_monitor()
    return {
        "report": report_fields(report),
        "result": record.result,
        "trace_events": trace.events,
        "telemetry": telemetry_bytes(
            *ScaleSimulator(config).run_with_telemetry()),
        "monitored": telemetry_bytes(*monitored),
        "monitor": monitor,
    }


@pytest.fixture(scope="module")
def golden_run():
    config = golden_autoscale_config()
    record = ScaleSimulator(config)._run_record(capture=False)
    return config, record, record.report


class TestElasticRun:
    def test_accounting_closes(self, golden_run):
        _, _, report = golden_run
        assert isinstance(report, ScaleReport)
        assert report.n_offered == report.n_admitted + report.n_shed
        assert report.n_completed == report.n_admitted
        assert sum(n for _, n in report.shed_by_class) == report.n_shed
        assert sum(n for _, n in report.completed_by_class) \
            == report.n_completed
        assert 0.0 <= report.goodput <= 1.0
        assert 0.0 <= report.slo_attainment <= 1.0

    def test_pool_stays_within_bounds(self, golden_run):
        config, _, report = golden_run
        auto = config.policy.autoscale
        assert auto.min_shards <= report.pool_min
        assert report.pool_min <= report.pool_max <= auto.max_shards
        assert report.pool_min <= report.pool_final <= report.pool_max
        for action in report.actions:
            assert auto.min_shards <= action.pool_size <= auto.max_shards

    def test_autoscaler_reacted_to_the_spike(self, golden_run):
        _, _, report = golden_run
        assert report.n_attaches > 0
        assert report.n_detaches > 0
        assert report.n_shed > 0
        assert report.pool_max > report.pool_min
        assert report.warmup_total_s > 0
        assert report.peak_burn_rate >= 1.0

    def test_action_log_is_consistent(self, golden_run):
        _, _, report = golden_run
        kinds = {}
        for action in report.actions:
            kinds[action.kind] = kinds.get(action.kind, 0) + 1
        assert kinds.get("attach", 0) == kinds.get("warm", 0) \
            == report.n_attaches
        assert kinds.get("detach", 0) == kinds.get("drained", 0) \
            == report.n_detaches
        assert kinds.get("shed", 0) == report.n_shed
        times = [action.t_s for action in report.actions]
        assert times == sorted(times)
        for action in report.actions:
            if action.kind == "attach":
                assert action.duration_s > 0  # warm-up DMA-in is charged
            if action.kind == "shed":
                assert action.priority  # shed actions carry their class

    def test_low_weight_class_sheds_first(self, golden_run):
        config, _, report = golden_run
        by_name = dict(report.shed_by_class)
        assert by_name["batch"] > 0
        assert by_name["interactive"] == 0
        weights = {cls.name: cls.weight
                   for cls in config.policy.priorities}
        assert weights["batch"] < weights["interactive"]

    def test_exactly_once_across_scale_transitions(self, golden_run):
        _, run, report = golden_run
        result = run.result
        assert len(result.records) == report.n_admitted
        served = {}
        for batch in result.batches:
            for req_id in batch.request_ids:
                served.setdefault(req_id, []).append(batch.shard_id)
        for record in result.records:
            assert record.retrieval_done_s is not None
            assert record.retrieval_done_s >= record.arrival_s
            # One completion per fanned-out device, no duplicates --
            # including requests admitted mid-attach or mid-drain.
            assert len(record.shard_done_s) == record.n_required
            shards = served[record.req_id]
            assert sorted(shards) == sorted(set(shards))
            assert set(shards) == set(record.shard_done_s)

    def test_fanout_tracks_pool_size(self, golden_run):
        _, record, report = golden_run
        result = record.result
        widths = {record.n_required for record in result.records}
        assert min(widths) >= report.pool_min
        assert max(widths) == report.pool_max

    def test_report_format_mentions_the_control_plane(self, golden_run):
        _, _, report = golden_run
        text = report.format()
        assert "attach(es)" in text
        assert "shed" in text
        assert "warm-up DMA-in" in text
        assert "goodput" in text


def _slot_counts_from_actions(config, pool):
    """Per slot, ``(t_s, chunk_count)`` change points replayed from the
    action log alone: warm, detach and a serving slot's death re-anchor
    every serving slot, while a draining slot keeps its last count."""
    serving = set(range(config.serve.n_shards))
    changes = {}

    def anchor(t_s):
        for j, count in pool.counts_for(sorted(serving)).items():
            changes.setdefault(j, []).append((t_s, count))

    anchor(0.0)
    for action in ScaleSimulator(config).run().actions:
        if action.kind == "warm":
            serving.add(action.shard_id)
        elif action.kind in ("detach", "dead") \
                and action.shard_id in serving:
            serving.remove(action.shard_id)
            if not serving:
                continue
        else:
            continue
        anchor(action.t_s)
    return changes


@pytest.mark.parametrize("make_config", [golden_autoscale_config,
                                         golden_autoscale_fault_config])
def test_dispatch_costs_follow_the_topology_in_force(make_config):
    # Oracle for the per-slot dispatch caches: each batch's bytes and
    # service time must be the pool's values for the chunk count its
    # slot held at dispatch, as replayed from the action log.  A tie
    # with a topology change at the dispatch instant may see either
    # side of it.
    config = make_config()
    serve = config.serve
    pool = ElasticAPUDevicePool(serve.spec,
                                config.policy.autoscale.max_shards,
                                serve.k, integrity=serve.integrity,
                                ecc=serve.ecc)
    changes = _slot_counts_from_actions(config, pool)
    record = ScaleSimulator(config)._run_record(capture=False)
    batches = record.result.batches
    assert len(record.batch_bytes) == len(batches)
    seen = {}
    for batch, nbytes in zip(batches, record.batch_bytes):
        points = changes[batch.shard_id]
        before = [count for t_s, count in points if t_s < batch.dispatch_s]
        allowed = before[-1:] + [count for t_s, count in points
                                 if t_s == batch.dispatch_s]
        matches = [count for count in allowed
                   if nbytes == pool.embedding_bytes(count)]
        assert matches, (batch, nbytes, allowed)
        if batch.outcome in ("ok", "corrupted"):
            assert any(
                batch.service_s == pool.service_seconds(
                    count, batch.batch_size) * batch.multiplier
                for count in matches), batch
        seen.setdefault(batch.shard_id, set()).update(matches)
    # The run re-anchors slots mid-flight, so a stale cache would show.
    assert any(len(counts) > 1 for counts in seen.values())


class TestDeterminismAndParity:
    def test_repeated_runs_bit_identical(self, golden_run):
        config, _, report = golden_run
        again = ScaleSimulator(config).run()
        assert again == report

    def test_engine_flag_does_not_change_the_elastic_loop(self):
        # Both settings run the one elastic loop, so a plain, a
        # fault/failover and an SDC/integrity elastic run expose the
        # same artifacts under either: report, raw schedule, trace
        # events, telemetry, and a monitored run byte-identical to the
        # unmonitored one.
        for name, make_config in ELASTIC_CONFIGS.items():
            config = make_config()
            scalar, vector = (
                _elastic_artifacts(dataclasses.replace(
                    config, serve=dataclasses.replace(config.serve,
                                                      engine=engine)))
                for engine in ("scalar", "vectorized"))
            assert vector.keys() == scalar.keys()
            for key in scalar:
                assert vector[key] == scalar[key], (name, key)
            assert len(scalar["trace_events"]) > 0
            assert vector["monitored"] == vector["telemetry"], name

    def test_telemetry_does_not_perturb_the_run(self, golden_run):
        config, _, report = golden_run
        with_tel, telemetry = ScaleSimulator(config).run_with_telemetry()
        assert with_tel == report
        assert len(telemetry.traces) == report.n_admitted
        # Per-request merge cost is keyed by the fan-out width.
        merges = {t.n_required: t.merge_s for t in telemetry.traces}
        assert len(merges) > 1
        assert all(merge_s > 0 for merge_s in merges.values())
        assert merges[min(merges)] <= merges[max(merges)]

    def test_trace_emission_only_under_a_collector(self, golden_run):
        config, _, report = golden_run
        with collecting() as trace:
            traced = ScaleSimulator(config).run()
        assert traced == report
        assert trace.cycles_by_lane.get(LANE_SCALE, 0.0) > 0
        names = {event.name for event in trace.events}
        assert {"scale_tick", "scale_attach", "scale_warmup",
                "scale_detach", "scale_drained",
                "scale_shed"} <= names


class TestClosedLoop:
    def test_closed_loop_completes_all_issues(self):
        config = ScaleConfig(
            serve=dataclasses.replace(golden_serve_config(),
                                      spec=PAPER_CORPORA["10GB"],
                                      n_shards=2, slo_s=0.520),
            policy=ScalePolicy(
                autoscale=AutoscalePolicy(min_shards=2, max_shards=4)),
            closed_loop=ClosedLoopConfig(n_clients=8, think_time_s=5e-3,
                                         n_requests=48, seed=0),
        )
        report = ScaleSimulator(config).run()
        assert report.n_offered == 48
        assert report.n_completed + report.n_shed == 48
        again = ScaleSimulator(config).run()
        assert again == report


class TestStaticDelegation:
    def test_plain_config_returns_the_serve_report(self):
        config = ScaleConfig(serve=golden_serve_config())
        report = ScaleSimulator(config).run()
        assert isinstance(report, ServeReport)


class TestConfigValidation:
    def test_faults_compose_with_a_policy(self):
        config = ScaleConfig(serve=golden_fault_config(),
                             policy=ScalePolicy())
        simulator = ScaleSimulator(config)
        assert not simulator.is_static
        assert simulator._injector is not None

    def test_integrity_composes_with_a_policy(self):
        config = ScaleConfig(serve=golden_integrity_config(),
                             policy=ScalePolicy())
        simulator = ScaleSimulator(config)
        assert not simulator.is_static
        assert simulator._pool is not None
        assert simulator._pool.integrity.enabled

    def test_initial_pool_outside_bounds_rejected(self):
        serve = dataclasses.replace(golden_serve_config(), n_shards=1)
        with pytest.raises(PoolBoundsError):
            ScaleConfig(serve=serve, policy=ScalePolicy())

    def test_closed_loop_requires_a_policy(self):
        with pytest.raises(ScaleConfigError):
            ScaleConfig(serve=golden_serve_config(),
                        closed_loop=ClosedLoopConfig())

    def test_arrivals_and_closed_loop_are_exclusive(self):
        with pytest.raises(ScaleConfigError):
            ScaleConfig(serve=golden_serve_config(), policy=ScalePolicy(),
                        arrivals=(0.0, 1e-3),
                        closed_loop=ClosedLoopConfig())

    @pytest.mark.parametrize("arrivals", [
        (), (-1.0, 0.0), (2e-3, 1e-3),
    ])
    def test_malformed_arrival_traces_rejected(self, arrivals):
        with pytest.raises(ScaleConfigError):
            ScaleConfig(serve=golden_serve_config(), arrivals=arrivals)


class TestPoolModel:
    @pytest.fixture(scope="class")
    def pool(self):
        return ElasticAPUDevicePool(PAPER_CORPORA["10GB"], capacity=6)

    @pytest.mark.parametrize("attached", [
        [0, 1], [0, 1, 2], [2, 4, 5], list(range(6)),
    ])
    def test_every_topology_covers_the_corpus(self, pool, attached):
        counts = pool.counts_for(attached)
        assert set(counts) == set(attached)
        assert sum(counts.values()) == pool.spec.n_chunks
        assert all(count >= 1 for count in counts.values())

    def test_full_pool_matches_the_static_placement(self, pool):
        counts = pool.counts_for(range(6))
        assert tuple(counts[i] for i in range(6)) == pool.base_counts

    @pytest.mark.parametrize("n_chunks, n_shards",
                             [(4, 4), (39, 6), (163_840, 6)])
    def test_one_death_places_chunks_like_the_static_takeover(
            self, n_chunks, n_shards):
        spec = CorpusSpec(f"{n_chunks} chunks", 1e6 * n_chunks, n_chunks)
        pool = ElasticAPUDevicePool(spec, capacity=n_shards)
        static = ShardServiceModel(spec, n_shards)
        for dead in range(n_shards):
            static.reset()
            live = [i for i in range(n_shards) if i != dead]
            static.apply_takeover(dead, live)
            assert pool.counts_for(live) \
                == {i: static.chunk_counts[i] for i in live}, dead

    def test_two_deaths_can_place_chunks_unlike_the_static_takeover(self):
        """The static fleet splits each death's slice over the survivors
        in turn; the pool splits every detached slice at once."""
        spec = CorpusSpec("4 chunks", 4e6, 4)
        static = ShardServiceModel(spec, 4)
        static.apply_takeover(0, [1, 2, 3])
        static.apply_takeover(2, [1, 3])
        assert static.chunk_counts == [0, 3, 0, 1]
        pool = ElasticAPUDevicePool(spec, capacity=4)
        assert pool.counts_for([1, 3]) == {1: 2, 3: 2}

    def test_topology_errors(self, pool):
        with pytest.raises(ValueError):
            pool.counts_for([])
        with pytest.raises(ValueError):
            pool.counts_for([0, 6])

    def test_service_time_scales_with_slice_and_batch(self, pool):
        small = pool.counts_for(range(6))[0]
        large = pool.counts_for([0, 1])[0]
        assert pool.service_seconds(large, 1) \
            > pool.service_seconds(small, 1)
        assert pool.service_seconds(small, 8) \
            > pool.service_seconds(small, 1)
        stages = pool.stage_seconds(small, 4)
        assert [name for name, _ in stages] \
            == ["dma", "mac", "topk", "return"]
        assert sum(seconds for _, seconds in stages) \
            == pytest.approx(pool.service_seconds(small, 4), rel=1e-12)

    def test_warmup_is_the_slice_dma_in(self, pool):
        small = pool.counts_for(range(6))[0]
        large = pool.counts_for([0, 1])[0]
        assert 0 < pool.warmup_seconds(small) < pool.warmup_seconds(large)

    def test_capacity_validation(self):
        spec = PAPER_CORPORA["10GB"]
        with pytest.raises(ValueError):
            ElasticAPUDevicePool(spec, capacity=0)
        with pytest.raises(ValueError):
            ElasticAPUDevicePool(spec, capacity=spec.n_chunks + 1)


class TestController:
    def test_window_only_counts_the_trailing_interval(self):
        policy = AutoscalePolicy(control_interval_s=0.010)
        signal = BurnSignal(policy.control_interval_s, slo_s=0.1)
        budget = policy.error_budget
        signal.note_completion(0.001, tti_latency_s=0.2)  # violation
        signal.note_completion(0.009, tti_latency_s=0.05)
        # One violation in two completions.
        assert signal.class_burns(0.010, [0], budget) == [0.5 / budget]
        # The next window starts at 0.010; both completions age out and
        # the three overdue requests are the window's only violations.
        assert signal.class_burns(0.020, [3], budget) == [1.0 / budget]

    def test_decisions_respect_bounds_and_cooldown(self):
        policy = AutoscalePolicy(min_shards=2, max_shards=4,
                                 cooldown_s=0.020)
        controller = BurnRateController(policy)
        assert controller.decide(0.01, burn=5.0, n_serving=4,
                                 n_warming=0) is None  # at max
        assert controller.decide(0.01, burn=5.0, n_serving=3,
                                 n_warming=1) is None  # warming counts
        assert controller.decide(0.01, burn=5.0, n_serving=2,
                                 n_warming=0) == "up"
        assert controller.decide(0.02, burn=5.0, n_serving=2,
                                 n_warming=0) is None  # cooling down
        assert controller.decide(0.04, burn=0.0, n_serving=2,
                                 n_warming=0) is None  # at min
        assert controller.decide(0.04, burn=0.0, n_serving=3,
                                 n_warming=0) == "down"
