"""Fault injection & graceful degradation across the serving stack.

Four claims back the chaos layer:

1. **Zero faults change nothing.**  An empty (or post-horizon) fault
   plan produces a report and a golden-trace rendering bit-identical to
   the fault-free simulator.
2. **Faults are deterministic.**  Any seeded chaos plan replays to
   identical metrics and traces, on fresh simulators and on reruns of
   the same simulator.
3. **Degradation is exact.**  Under a shard failure the deployment
   keeps serving, and the reported coverage (and the functional
   degraded recall) equals the analytic live-shard fraction -- not
   approximately, exactly.
4. **The unhappy paths behave.**  Timeouts abort at the deadline,
   retries respect capped exponential backoff and FIFO order, wasted
   attempts still occupy the device, circuit breakers declare shards
   dead, and failover (reroute vs degraded) does what it says.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.apu.device import APUDevicePool, DeviceUnavailableError
from repro.faults import FaultInjector, FaultPlan, OutageFault, StallFault
from repro.obs import collecting, render_trace_golden
from repro.rag.corpus import MiniCorpus, PAPER_CORPORA
from repro.serve import (
    BatchPolicy,
    PoolLoop,
    RetryPolicy,
    ServeConfig,
    ServeReport,
    ServingSimulator,
    ShardedAPURetriever,
    SliceCostModel,
    golden_fault_config,
    golden_integrity_config,
    golden_serve_config,
    measured_degraded_recall,
    oracle_live_recall,
    shard_chunk_counts,
)
from repro.serve.workload import trace_arrivals

from .test_scheduler import run_pinned


def const_service(seconds: float):
    """A batch cost that ignores shard and batch size (for clarity)."""

    def service(shard_id, batch_size):
        del shard_id, batch_size
        return seconds

    return service


def _one_death_split(base, dead):
    """Survivor -> chunks after ``dead``'s slice splits over the others
    as evenly as chunks allow, earlier survivors taking the
    remainder."""
    live = [j for j in range(len(base)) if j != dead]
    gained = shard_chunk_counts(base[dead], len(live))
    return {j: base[j] + extra for j, extra in zip(live, gained)}


def run_faulty(n_shards, plan, retry, requests, service_s=1e-3,
               max_batch=8, max_wait_s=0.0, on_death=None):
    """The pinned pool loop over ``requests`` under a fault ``plan``."""
    return run_pinned(
        n_shards, BatchPolicy(max_batch=max_batch, max_wait_s=max_wait_s),
        const_service(service_s), requests,
        injector=FaultInjector(plan, n_shards), retry=retry,
        on_death=on_death)


# ----------------------------------------------------------------------
# 1. Zero-fault bit-identity
# ----------------------------------------------------------------------
class TestZeroFaultIdentity:
    def _compare(self, fault_cfg):
        base_cfg = golden_serve_config()
        with collecting() as base_trace:
            base = ServingSimulator(base_cfg).run()
        with collecting() as fault_trace:
            faulty = ServingSimulator(fault_cfg).run()
        for field in dataclasses.fields(ServeReport):
            if field.name == "config":
                continue
            assert getattr(base, field.name) == getattr(faulty, field.name), \
                field.name
        assert render_trace_golden(base_trace, "serve") \
            == render_trace_golden(fault_trace, "serve")

    def test_empty_plan_is_bit_identical(self):
        self._compare(dataclasses.replace(
            golden_serve_config(),
            faults=FaultPlan(),
            retry=RetryPolicy(timeout_s=math.inf),
            failover="degraded"))

    def test_post_horizon_faults_are_bit_identical(self):
        """A plan whose faults all start after the makespan runs the
        injector machinery yet changes neither metrics nor trace."""
        late = FaultPlan(
            stalls=(StallFault(shard_id=0, start_s=1e3, duration_s=1.0,
                               slowdown=9.0),),
            outages=(OutageFault(shard_id=1, start_s=1e3),),
        )
        self._compare(dataclasses.replace(golden_serve_config(),
                                          faults=late))


# ----------------------------------------------------------------------
# 2. Deterministic replay
# ----------------------------------------------------------------------
class TestReplayDeterminism:
    @settings(deadline=None, max_examples=8)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_chaos_replay_is_bit_identical(self, seed):
        plan = FaultPlan.random(seed=seed, n_shards=3, horizon_s=0.08,
                                stall_rate=1.5, outage_rate=1.0)
        config = ServeConfig(
            spec=PAPER_CORPORA["10GB"], n_shards=3,
            batch=BatchPolicy(max_batch=4, max_wait_s=1e-3),
            qps=600.0, n_requests=24, seed=seed,
            faults=plan,
            retry=RetryPolicy(timeout_s=8e-3, max_retries=2,
                              backoff_base_s=5e-4, backoff_cap_s=4e-3),
            failover="reroute" if seed % 2 else "degraded",
        )
        with collecting() as trace_a:
            report_a = ServingSimulator(config).run()
        with collecting() as trace_b:
            report_b = ServingSimulator(config).run()
        assert report_a == report_b
        assert render_trace_golden(trace_a, "chaos") \
            == render_trace_golden(trace_b, "chaos")

    def test_same_simulator_reruns_identically(self):
        """Failover mutates the service model; run() must reset it."""
        simulator = ServingSimulator(golden_fault_config())
        first = simulator.run()
        second = simulator.run()
        assert first == second


# ----------------------------------------------------------------------
# 3. Exact degradation
# ----------------------------------------------------------------------
class TestScriptedOutageDegradation:
    def chaos_config(self, failover):
        return ServeConfig(
            spec=PAPER_CORPORA["10GB"], n_shards=4,
            batch=BatchPolicy(max_batch=8, max_wait_s=2e-3),
            qps=400.0, n_requests=32, seed=0,
            faults=FaultPlan(outages=(OutageFault(shard_id=2,
                                                  start_s=0.0),)),
            failover=failover,
        )

    def test_degraded_mode_reports_exact_coverage(self):
        """One of four equal shards dark from t=0: every answer covers
        exactly 3/4 of the corpus, and the deployment keeps serving."""
        report = ServingSimulator(self.chaos_config("degraded")).run()
        assert report.n_completed == 32
        assert report.throughput_qps > 0
        assert report.n_shard_failures == 1
        assert report.mean_coverage == 0.75
        assert report.min_coverage == 0.75
        assert report.degraded_requests == 32

    def test_reroute_mode_restores_coverage(self):
        """Survivors take over the dead slice: only the request in
        flight at the death loses coverage."""
        simulator = ServingSimulator(self.chaos_config("reroute"))
        record = simulator._simulate()
        report = record.report
        assert report.n_shard_failures == 1
        assert report.min_coverage == 0.75
        assert report.degraded_requests == 1
        assert report.mean_coverage == (31 * 1.0 + 0.75) / 32
        # The dead slice was redistributed, none of it lost: every
        # later batch streams its survivor's share of the split.
        base = simulator.placement
        split = _one_death_split(base, 2)
        assert sum(split.values()) == PAPER_CORPORA["10GB"].n_chunks
        [death] = record.result.death_times.values()
        cost = simulator.cost_model
        late = [(batch, nbytes) for batch, nbytes
                in zip(record.result.batches, record.batch_bytes)
                if batch.dispatch_s > death]
        assert {batch.shard_id for batch, _ in late} == {0, 1, 3}
        for batch, nbytes in late:
            assert nbytes == cost.embedding_bytes(split[batch.shard_id])

    def test_reroute_slows_surviving_shards(self):
        """Post-takeover batches are costed on the enlarged slices."""
        simulator = ServingSimulator(self.chaos_config("reroute"))
        result = simulator._simulate().result
        [death] = result.death_times.values()
        cost, base = simulator.cost_model, simulator.placement
        enlarged = _one_death_split(base, 2)[0]
        after = [batch for batch in result.batches
                 if batch.shard_id == 0 and batch.dispatch_s > death]
        assert after
        for batch in after:
            assert batch.service_s \
                == cost.service_seconds(enlarged, batch.batch_size) \
                > cost.service_seconds(base[0], batch.batch_size)

    @pytest.mark.parametrize("failover", ["reroute", "degraded"])
    def test_memoized_batch_seconds_follow_the_slices(self, failover):
        """The memo, keyed by chunk count, never serves a time from
        before a takeover or a degraded death: every batch costs what a
        fresh model charges for the slice its shard held at dispatch
        (under ABFT the verification cost grows with the slice's MAC
        blocks, two per 50 GB quarter) -- the enlarged slice after a
        reroute, the unchanged one after a degraded death -- and the
        dead shard dispatches nothing after its death."""
        config = dataclasses.replace(
            self.chaos_config(failover), spec=PAPER_CORPORA["50GB"],
            faults=FaultPlan(outages=(OutageFault(shard_id=2,
                                                  start_s=0.02),)),
            integrity=golden_integrity_config().integrity)
        simulator = ServingSimulator(config)
        result = simulator._simulate().result
        [death] = result.death_times.values()
        # Shard 2 served (and memoized) batches before it died.
        assert any(batch.shard_id == 2 for batch in result.batches)
        assert all(batch.dispatch_s < death for batch in result.batches
                   if batch.shard_id == 2)
        base = simulator.placement
        after = _one_death_split(base, 2) if failover == "reroute" \
            else {j: base[j] for j in (0, 1, 3)}
        fresh = SliceCostModel(config.spec, config.k,
                               integrity=config.integrity)
        checked = 0
        for batch in result.batches:
            if batch.outcome != "ok" or batch.dispatch_s == death:
                continue
            count = base[batch.shard_id] if batch.dispatch_s < death \
                else after[batch.shard_id]
            assert batch.service_s \
                == fresh.service_seconds(count, batch.batch_size), batch
            checked += 1
        assert checked > 0
        with pytest.raises(ValueError, match="chunk_count must be >= 1"):
            fresh.service_seconds(0, 1)

    def two_death_config(self, failover):
        """Four shards over a four-chunk corpus, one chunk each: shard
        0 fails for good, then shard 2."""
        return ServeConfig(
            spec=dataclasses.replace(PAPER_CORPORA["10GB"], n_chunks=4),
            n_shards=4, batch=BatchPolicy(max_batch=8, max_wait_s=2e-3),
            qps=400.0, n_requests=48, seed=0,
            faults=FaultPlan(outages=(
                OutageFault(shard_id=0, start_s=0.02),
                OutageFault(shard_id=2, start_s=0.06))),
            failover=failover,
        )

    def test_reroute_pools_every_dead_slice(self):
        """After one death its chunk goes to the first survivor; after
        the second the two orphaned chunks are pooled and split one to
        each survivor ({1: 2, 3: 2}), and every batch is priced on the
        slice its shard held at dispatch."""
        simulator = ServingSimulator(self.two_death_config("reroute"))
        record = simulator._simulate()
        result = record.result
        assert list(result.death_times) == [0, 2]
        first, second = result.death_times[0], result.death_times[2]
        between = {1: 2, 2: 1, 3: 1}
        pooled = {1: 2, 3: 2}
        cost = simulator.cost_model
        late = set()
        for batch, nbytes in zip(result.batches, record.batch_bytes):
            if batch.dispatch_s < first:
                count = 1
            elif first < batch.dispatch_s < second:
                count = between[batch.shard_id]
            elif batch.dispatch_s > second:
                count = pooled[batch.shard_id]
                late.add(batch.shard_id)
            else:
                continue
            assert nbytes == cost.embedding_bytes(count), batch
            if batch.outcome == "ok":
                assert batch.service_s \
                    == cost.service_seconds(count, batch.batch_size), batch
        assert late == {1, 3}

    def test_degraded_coverage_is_the_answered_share(self):
        """Under degraded failover every shard keeps its one chunk, so
        a request's coverage is the share of shards that answered it,
        and the report's coverage numbers are those shares."""
        simulator = ServingSimulator(self.two_death_config("degraded"))
        record = simulator._simulate()
        report, result = record.report, record.result
        assert report.n_shard_failures == 2
        shares = [len(r.shard_done_s) / 4 for r in result.records]
        assert {0.5, 0.75, 1.0} <= set(shares)
        assert report.mean_coverage == sum(shares) / len(shares)
        assert report.min_coverage == min(shares) == 0.5
        assert report.degraded_requests \
            == sum(1 for share in shares if share < 1.0)

    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    def test_batch_bytes_are_charged_at_dispatch(self, engine):
        """A batch dispatched before a takeover streams the survivor's
        original slice, not the slice it holds once the run ends."""
        config = dataclasses.replace(golden_fault_config(), engine=engine)
        simulator = ServingSimulator(config)
        with collecting() as trace:
            simulator.run()
        batches = [e for e in trace.events if e.name == "serve_batch"]
        assert len(batches) == 81
        assert sum(e.bytes_moved for e in batches) == 3_995_076_096
        # The monitor's HBM traffic input is the same dispatch-time list.
        record = simulator._simulate(capture=True)
        assert record.batch_bytes == [e.bytes_moved for e in batches]

    def test_all_shards_dead_still_resolves(self):
        config = ServeConfig(
            spec=PAPER_CORPORA["10GB"], n_shards=2,
            qps=200.0, n_requests=8, seed=1,
            faults=FaultPlan(outages=(OutageFault(shard_id=0, start_s=0.0),
                                      OutageFault(shard_id=1, start_s=0.0))),
            failover="reroute",
        )
        report = ServingSimulator(config).run()
        assert report.n_completed == 8
        assert report.n_shard_failures == 2
        assert report.mean_coverage == 0.0
        assert report.degraded_requests == 8


class TestAnalyticRecall:
    @settings(deadline=None, max_examples=10)
    @given(
        n_chunks=st.integers(min_value=8, max_value=72),
        seed=st.integers(min_value=0, max_value=2**16),
        dead=st.integers(min_value=0, max_value=3),
        k=st.integers(min_value=1, max_value=6),
    )
    # Every oracle hit (chunks 29, 41, 5, 37) lives on the dead shard:
    # recall 0 is the right answer, not a model failure.
    @example(n_chunks=49, seed=122, dead=1, k=4)
    def test_single_shard_failure_recall_is_live_fraction(
            self, n_chunks, seed, dead, k):
        """Measured degraded recall == fraction of oracle top-k on live
        shards, exactly, for round-robin placement."""
        corpus = MiniCorpus(n_chunks=n_chunks, dim=16, seed=seed)
        query = corpus.sample_query()
        scores = corpus.scores(query)
        assume(int(scores.max()) < (1 << 16) and int(scores.min()) > 0)
        k = min(k, n_chunks)
        live = [s for s in range(4) if s != dead]

        measured = measured_degraded_recall(corpus, query, k, live, 4,
                                            policy="round_robin")
        analytic = oracle_live_recall(corpus, query, k, live, 4,
                                      policy="round_robin")
        assert measured == analytic
        # An independent count: round-robin puts chunk i on shard i % 4,
        # and the oracle ranks by score, ties to the lower chunk id.
        oracle = np.lexsort((np.arange(n_chunks), -scores))[:k]
        assert analytic == sum(1 for i in oracle if i % 4 != dead) / k

    def test_dead_pool_device_is_skipped(self):
        """Marking a pool device down degrades exactly like excluding
        its shard id."""
        corpus = MiniCorpus(n_chunks=40, dim=16, seed=3)
        query = corpus.sample_query()
        retriever = ShardedAPURetriever(4)
        pool = APUDevicePool(4)
        pool.mark_down(1, "pulled for maintenance")
        with pytest.raises(DeviceUnavailableError):
            pool[1].run_task(lambda device: None)
        got = retriever.retrieve(corpus, query, 5, pool)
        expected = retriever.retrieve(corpus, query, 5,
                                      live_shards={0, 2, 3})
        assert got == expected
        assert pool.live_ids() == [0, 2, 3]
        pool.mark_up(1)
        assert retriever.retrieve(corpus, query, 5, pool) \
            == retriever.retrieve(corpus, query, 5)


# ----------------------------------------------------------------------
# 4. Scheduler unhappy paths (synthetic service times)
# ----------------------------------------------------------------------
class TestTimeoutRetryBackoff:
    def test_stall_multiplies_service_time(self):
        plan = FaultPlan(stalls=(StallFault(shard_id=0, start_s=0.0,
                                            duration_s=1.0, slowdown=4.0),))
        result = run_faulty(1, plan, RetryPolicy(), trace_arrivals([0.0]))
        (batch,) = result.batches
        assert batch.multiplier == 4.0
        assert batch.service_s == 4e-3
        assert batch.outcome == "ok"
        assert not result.fault_log

    def test_timeout_retry_spacing_and_accounting(self):
        """Three timeouts under a stall, exponential backoff between
        attempts, then a clean retry once the stall lifts."""
        plan = FaultPlan(stalls=(StallFault(shard_id=0, start_s=0.0,
                                            duration_s=0.02,
                                            slowdown=10.0),))
        retry = RetryPolicy(timeout_s=5e-3, max_retries=3,
                            backoff_base_s=1e-3, backoff_cap_s=8e-3)
        result = run_faulty(1, plan, retry, trace_arrivals([0.0, 1e-3]))

        assert [b.outcome for b in result.batches] \
            == ["timeout", "timeout", "timeout", "ok"]
        assert [b.attempt for b in result.batches] == [0, 1, 2, 3]
        # Dispatches: fail at +5ms, then backoff 1, 2, 4 ms (doubling).
        t0 = 0.0
        t1 = t0 + 5e-3 + 1e-3
        t2 = t1 + 5e-3 + 2e-3
        t3 = t2 + 5e-3 + 4e-3
        assert [b.dispatch_s for b in result.batches] == [t0, t1, t2, t3]
        # Retries preserve FIFO: the head request stays first, and the
        # second arrival joins the retried batch behind it.
        assert result.batches[-1].request_ids[0] == 0
        assert result.batches[-1].request_ids == (0, 1)
        # Wasted attempts still occupied the device.
        assert result.busy_seconds[0] == pytest.approx(3 * 5e-3 + 1e-3)
        assert result.n_timeouts == 3
        assert result.n_retries == 3
        assert not result.death_times
        for record in result.records:
            assert record.fully_served

    def test_backoff_caps(self):
        retry = RetryPolicy(timeout_s=1.0, max_retries=10,
                            backoff_base_s=1e-3, backoff_cap_s=4e-3)
        assert [retry.backoff_s(n) for n in (1, 2, 3, 4, 9)] \
            == [1e-3, 2e-3, 4e-3, 4e-3, 4e-3]

    def test_retries_exhausted_declares_dead(self):
        plan = FaultPlan(stalls=(StallFault(shard_id=0, start_s=0.0,
                                            duration_s=10.0,
                                            slowdown=10.0),))
        retry = RetryPolicy(timeout_s=5e-3, max_retries=1,
                            backoff_base_s=1e-3, backoff_cap_s=8e-3)
        deaths = []
        result = run_faulty(
            2, plan, retry, trace_arrivals([0.0]),
            on_death=lambda sid, t, serving: deaths.append((sid, t)))
        assert list(result.death_times) == [0]
        assert deaths == [(0, result.death_times[0])]
        assert [e.kind for e in result.fault_log] \
            == ["timeout", "backoff", "timeout", "dead"]
        (record,) = result.records
        assert record.failed_shards == {0}
        assert not record.fully_served
        assert record.shard_done_s.keys() == {1}  # shard 1 still answered
        assert record.retrieval_done_s is not None

    def test_transient_outage_holds_queue_until_restart(self):
        plan = FaultPlan(outages=(OutageFault(shard_id=0, start_s=0.0,
                                              duration_s=10e-3),))
        result = run_faulty(1, plan, RetryPolicy(), trace_arrivals([0.0]))
        (batch,) = result.batches
        assert batch.dispatch_s == 10e-3
        assert batch.outcome == "ok"
        assert not result.fault_log
        assert result.records[0].retrieval_done_s == 10e-3 + 1e-3

    def test_outage_interrupts_inflight_batch(self):
        plan = FaultPlan(outages=(OutageFault(shard_id=0, start_s=2e-3,
                                              duration_s=5e-3),))
        result = run_faulty(1, plan, RetryPolicy(), trace_arrivals([0.0]),
                            service_s=4e-3)
        first, second = result.batches
        assert first.outcome == "interrupted"
        assert first.service_s == 2e-3         # cut at the outage start
        assert second.dispatch_s == 7e-3       # resumes when back up
        assert second.outcome == "ok"
        assert result.busy_seconds[0] == pytest.approx(2e-3 + 4e-3)
        assert [e.kind for e in result.fault_log] \
            == ["interrupted", "backoff"]

    def test_permanent_outage_fails_over_pending_requests(self):
        plan = FaultPlan(outages=(OutageFault(shard_id=1, start_s=0.0),))
        result = run_faulty(2, plan, RetryPolicy(),
                            trace_arrivals([0.0, 1e-4, 2e-4]))
        assert list(result.death_times) == [1]
        for record in result.records:
            assert record.retrieval_done_s is not None
        # The first arrival triggers the death; later arrivals fan out
        # to the survivor only.
        assert result.records[0].failed_shards == {1}
        assert result.records[0].n_required == 2
        for record in result.records[1:]:
            assert record.failed_shards == set()
            assert record.n_required == 1


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
class TestValidation:
    def base_kwargs(self):
        return dict(spec=PAPER_CORPORA["10GB"], n_shards=4)

    def test_config_rejects_out_of_range_fault_shard(self):
        plan = FaultPlan(outages=(OutageFault(shard_id=4, start_s=0.0),))
        with pytest.raises(ValueError, match=r"shard ids \[4\]"):
            ServeConfig(faults=plan, **self.base_kwargs())

    def test_config_rejects_unknown_failover(self):
        with pytest.raises(ValueError, match="failover"):
            ServeConfig(failover="panic", **self.base_kwargs())

    def test_config_rejects_wrong_types(self):
        with pytest.raises(ValueError, match="FaultPlan"):
            ServeConfig(faults={"stalls": []}, **self.base_kwargs())
        with pytest.raises(ValueError, match="RetryPolicy"):
            ServeConfig(retry=0.5, **self.base_kwargs())

    @pytest.mark.parametrize("kwargs", [
        dict(timeout_s=0.0),
        dict(timeout_s=-1.0),
        dict(timeout_s=math.nan),
        dict(max_retries=-1),
        dict(max_retries=2.5),
        dict(max_retries=True),
        dict(backoff_base_s=0.0),
        dict(backoff_base_s=-1e-3),
        dict(backoff_base_s=math.inf),
        dict(backoff_base_s=2e-3, backoff_cap_s=1e-3),
        dict(backoff_cap_s=math.inf),
    ])
    def test_retry_policy_rejects_nonpositive_parameters(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_scheduler_rejects_mismatched_injector(self):
        injector = FaultInjector(FaultPlan(), n_shards=2)
        with pytest.raises(ValueError, match="injector"):
            PoolLoop(4, BatchPolicy(), const_service(1e-3),
                     injector=injector)

    def test_infinite_timeout_never_fires(self):
        plan = FaultPlan(stalls=(StallFault(shard_id=0, start_s=0.0,
                                            duration_s=1.0,
                                            slowdown=100.0),))
        # RetryPolicy() has an infinite timeout.
        result = run_faulty(1, plan, RetryPolicy(), trace_arrivals([0.0]))
        assert result.n_timeouts == 0
        assert result.batches[0].service_s == pytest.approx(0.1)
