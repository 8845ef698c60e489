"""Fault-aware elastic control: invariants on the canonical fault run.

The golden fault workload (``golden_autoscale_fault_config``) composes
every dynamic hazard with the autoscaler: a sustained spike, a
transient stall, a finite outage with slow recovery, a permanent outage
(death + failover), and SDC bit flips under ABFT protection (detection,
recompute healing, and a stuck-at lane that exhausts its budget and
escalates to replace-and-drain).  These tests pin the control-plane
semantics -- deaths are answered with cooldown-bypassing failover
attaches, fault pressure forces/vetoes scaling, and the accounting
still closes exactly -- plus the pinned regression for a shard dying
mid-cooldown.
"""

import pytest

from repro.monitor import BurnSignal
from repro.scale import (
    AutoscalePolicy,
    BurnRateController,
    ScaleSimulator,
    golden_autoscale_fault_config,
)


@pytest.fixture(scope="module")
def fault_run():
    config = golden_autoscale_fault_config()
    record = ScaleSimulator(config)._run_record(capture=False)
    return config, record, record.report


class TestFaultElasticRun:
    def test_accounting_still_closes_under_faults(self, fault_run):
        _, _, report = fault_run
        assert report.n_offered == report.n_admitted + report.n_shed
        assert report.n_completed == report.n_admitted
        assert sum(n for _, n in report.shed_by_class) == report.n_shed
        assert sum(n for _, n in report.completed_by_class) \
            == report.n_completed

    def test_the_hazards_all_fired(self, fault_run):
        _, _, report = fault_run
        assert report.n_shard_failures == 2
        assert report.n_failovers == 1
        assert report.n_retries > 0
        assert report.n_interrupted > 0
        assert report.degraded_requests > 0
        assert report.n_corruptions_detected > 0
        assert report.n_recomputes > 0
        assert report.n_sdc_escapes == 0  # ABFT caught every upset

    def test_deaths_appear_in_the_action_log(self, fault_run):
        _, _, report = fault_run
        deaths = [a for a in report.actions if a.kind == "dead"]
        assert len(deaths) == report.n_shard_failures
        assert all(a.shard_id >= 0 for a in deaths)

    def test_failover_attach_is_immediate_and_warmed(self, fault_run):
        _, _, report = fault_run
        death_times = {a.t_s for a in report.actions if a.kind == "dead"}
        failovers = [a for a in report.actions
                     if a.kind == "attach" and a.reason == "failover"]
        assert len(failovers) == report.n_failovers == 1
        for action in failovers:
            # The replacement is decided at the death event itself,
            # not at the next control tick.
            assert action.t_s in death_times
            # ...and its corpus DMA-in is charged like any attach.
            assert action.duration_s > 0

    def test_dead_devices_never_dispatch_again(self, fault_run):
        _, record, report = fault_run
        result = record.result
        assert len(result.death_times) == report.n_shard_failures
        for batch in result.batches:
            death = result.death_times.get(batch.shard_id)
            if death is not None:
                assert batch.dispatch_s <= death

    def test_exactly_once_with_failed_legs(self, fault_run):
        _, run, _ = fault_run
        result = run.result
        for record in result.records:
            assert record.retrieval_done_s is not None
            done = set(record.shard_done_s)
            failed = set(record.failed_shards)
            # A device leg either completed or died -- never both, and
            # together they cover the admission-time fan-out exactly.
            assert not (done & failed)
            assert len(done) + len(failed) == record.n_required

    def test_fault_log_is_time_ordered_and_populated(self, fault_run):
        _, record, _ = fault_run
        result = record.result
        kinds = {entry.kind for entry in result.fault_log}
        assert {"dead", "interrupted", "corrupted", "recompute",
                "backoff"} <= kinds
        times = [entry.t_s for entry in result.fault_log]
        assert times == sorted(times)

    def test_report_format_tells_the_fault_story(self, fault_run):
        _, _, report = fault_run
        text = report.format()
        assert "failover" in text
        assert "death" in text
        assert "detected" in text

    def test_repeated_fault_runs_bit_identical(self, fault_run):
        config, _, report = fault_run
        again = ScaleSimulator(config).run()
        assert again == report


class TestControllerFailover:
    """Pinned regression: a shard death mid-cooldown must still attach."""

    def test_death_mid_cooldown_still_attaches(self):
        policy = AutoscalePolicy(min_shards=2, max_shards=4,
                                 cooldown_s=0.020)
        controller = BurnRateController(policy)
        assert controller.decide(0.010, burn=5.0, n_serving=2,
                                 n_warming=0) == "up"
        # 2 ms later -- deep inside the cooldown -- a shard dies.  The
        # regular tick path must hold...
        assert controller.decide(0.012, burn=5.0, n_serving=2,
                                 n_warming=1) is None
        # ...but the failover path bypasses the cooldown entirely.
        assert controller.decide_failover(0.012, n_serving=2,
                                          n_warming=1) is True
        # The failover restarted the cooldown clock: still quiet at
        # +8 ms, free again at +20 ms.
        assert controller.decide(0.020, burn=5.0, n_serving=3,
                                 n_warming=0) is None
        assert controller.decide(0.032, burn=5.0, n_serving=3,
                                 n_warming=0) == "up"

    def test_failover_respects_the_pool_ceiling(self):
        policy = AutoscalePolicy(min_shards=2, max_shards=4)
        controller = BurnRateController(policy)
        assert controller.decide_failover(0.01, n_serving=4,
                                          n_warming=0) is False
        assert controller.decide_failover(0.01, n_serving=3,
                                          n_warming=1) is False
        assert controller.decide_failover(0.01, n_serving=3,
                                          n_warming=0) is True

    def test_fault_pressure_forces_up_and_vetoes_down(self):
        policy = AutoscalePolicy(min_shards=2, max_shards=4,
                                 cooldown_s=0.0)
        controller = BurnRateController(policy)
        # Green burn, but a fault in the window: scale up anyway.
        assert controller.decide(0.01, burn=0.0, n_serving=3, n_warming=0,
                                 fault_pressure=1) == "up"
        # Same green burn with no pressure: the pool may shrink.
        assert controller.decide(0.02, burn=0.0, n_serving=3, n_warming=0,
                                 fault_pressure=0) == "down"
        # At the pool ceiling, pressure still vetoes the shrink (it
        # cannot grow, so the controller holds instead).
        assert controller.decide(0.03, burn=0.0, n_serving=4, n_warming=0,
                                 fault_pressure=2) is None

    def test_fault_events_age_out_with_the_window(self):
        policy = AutoscalePolicy(control_interval_s=0.010)
        signal = BurnSignal(policy.control_interval_s, slo_s=0.1)
        signal.note_fault(0.005)
        assert signal.recent_faults(0.010) == 1
        assert signal.recent_faults(0.020) == 0
