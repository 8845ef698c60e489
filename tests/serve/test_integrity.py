"""Serving-layer SDC resilience: detection, recompute, honest cost.

The serving claims on top of the functional ABFT layer:

1. **Protection catches everything scripted.**  On the golden SDC
   deployment every transient flip and stuck-at onset is detected,
   recomputed batches re-serve their requests, and zero corrupted
   answers escape; persistent corruption burns the retry budget into a
   failover instead of looping.
2. **No protection, no safety.**  The identical plan with integrity
   disabled completes "successfully" while silently corrupting served
   answers (``sdc`` log entries, intact coverage < 1).
3. **Overhead is charged, not free.**  Verification and scrubbing
   stretch service times through the latency model, so protected
   throughput is measurably (but boundedly) lower.
4. **Corruption consumption is physical.**  A transient flip corrupts
   the *next completing* batch -- even one dispatched after an idle gap
   -- and exactly one batch per flip.
"""

import dataclasses

import pytest

from repro.faults import FaultPlan
from repro.faults.plan import BitFlipFault
from repro.integrity import IntegrityConfig
from repro.rag.corpus import PAPER_CORPORA
from repro.serve import (
    BatchPolicy,
    RetryPolicy,
    ServeConfig,
    ServingSimulator,
    SliceCostModel,
    golden_integrity_config,
    golden_serve_config,
    shard_chunk_counts,
)


def _unprotected(config):
    return dataclasses.replace(config, integrity=IntegrityConfig())


class TestGoldenIntegrityRun:
    @pytest.fixture(scope="class")
    def reports(self):
        protected = golden_integrity_config()
        return (ServingSimulator(protected).run(),
                ServingSimulator(_unprotected(protected)).run())

    def test_protected_detects_and_recovers_everything(self, reports):
        protected, _ = reports
        assert protected.n_corruptions_detected > 0
        assert protected.n_recomputes > 0
        assert protected.n_sdc_escapes == 0
        assert protected.n_completed == golden_integrity_config().n_requests

    def test_stuck_at_fails_over_instead_of_looping(self, reports):
        protected, unprotected = reports
        # The scripted stuck-at cell on shard 3 defeats recompute: the
        # retry budget burns out and the shard is declared dead.
        assert protected.n_shard_failures == 1
        # Without detection nothing ever retries, so nothing dies.
        assert unprotected.n_shard_failures == 0

    def test_unprotected_run_silently_corrupts(self, reports):
        protected, unprotected = reports
        assert unprotected.n_corruptions_detected == 0
        assert unprotected.n_recomputes == 0
        assert unprotected.n_sdc_escapes > 0
        assert unprotected.mean_intact_coverage \
            < protected.mean_intact_coverage <= 1.0

    def test_report_format_names_the_mode(self, reports):
        protected, unprotected = reports
        assert "integrity (protected)" in protected.format()
        assert "integrity (UNPROTECTED)" in unprotected.format()
        assert "escaped" in unprotected.format()

    def test_clean_config_reports_no_integrity_line(self):
        report = ServingSimulator(golden_serve_config()).run()
        assert "integrity" not in report.format()
        assert report.n_sdc_escapes == 0
        assert report.mean_intact_coverage == 1.0


class TestConsumptionSemantics:
    def _config(self, flips, protected, qps=400.0, n_requests=48):
        return ServeConfig(
            spec=PAPER_CORPORA["10GB"],
            n_shards=4,
            batch=BatchPolicy(max_batch=8, max_wait_s=2e-3),
            k=5,
            qps=qps,
            n_requests=n_requests,
            seed=0,
            slo_s=1.0,
            faults=FaultPlan(bit_flips=tuple(flips)),
            retry=RetryPolicy(max_retries=2, backoff_base_s=1e-3,
                              backoff_cap_s=8e-3),
            integrity=IntegrityConfig(enabled=True) if protected
            else IntegrityConfig(),
        )

    def test_idle_window_flip_corrupts_next_batch(self):
        """An upset landing while the shard idles corrupts the resident
        data the *next* batch computes on -- it must not vanish into the
        gap between service windows."""
        flip = BitFlipFault(shard_id=1, t_s=0.030, target="vr", vr=4,
                            bit=9, element=5)
        report = ServingSimulator(
            self._config([flip], protected=True)).run()
        assert report.n_corruptions_detected == 1
        assert report.n_sdc_escapes == 0

    def test_each_flip_corrupts_exactly_one_batch(self):
        flips = [
            BitFlipFault(shard_id=1, t_s=t, target="vr", vr=4, bit=9,
                         element=5)
            for t in (0.010, 0.040, 0.070)
        ]
        protected = ServingSimulator(
            self._config(flips, protected=True)).run()
        assert protected.n_corruptions_detected == 3
        unprotected = ServingSimulator(
            self._config(flips, protected=False)).run()
        assert unprotected.n_sdc_escapes == 3

    def test_unprotected_marks_served_requests_corrupted(self):
        flip = BitFlipFault(shard_id=2, t_s=0.020, target="vr", vr=4,
                            bit=3, element=9)
        report = ServingSimulator(
            self._config([flip], protected=False)).run()
        assert report.n_sdc_escapes == 1
        assert report.mean_intact_coverage < 1.0
        # Everything still "succeeds": silent corruption, no failures.
        assert report.n_shard_failures == 0
        assert report.n_completed == 48


class TestChargedOverhead:
    def test_verification_stretches_service_times(self):
        spec = PAPER_CORPORA["10GB"]
        plain = SliceCostModel(spec)
        checked = SliceCostModel(spec,
                                 integrity=IntegrityConfig(enabled=True))
        for count in shard_chunk_counts(spec.n_chunks, 4):
            assert checked.service_seconds(count, 4) \
                > plain.service_seconds(count, 4)
            assert checked.verify_seconds(count) > 0.0

    def test_scrubbing_adds_duty_factor(self):
        spec = PAPER_CORPORA["10GB"]
        checked = SliceCostModel(spec,
                                 integrity=IntegrityConfig(enabled=True))
        scrubbed = SliceCostModel(
            spec,
            integrity=IntegrityConfig(enabled=True, scrub_interval_s=0.05))
        assert scrubbed.scrub_duty_factor > checked.scrub_duty_factor == 1.0
        quarter = shard_chunk_counts(spec.n_chunks, 4)[0]
        assert scrubbed.service_seconds(quarter, 1) \
            > checked.service_seconds(quarter, 1)

    def test_protected_throughput_cost_is_bounded(self):
        """The protection tax is real but small: sustained qps drops,
        and by far less than the 10% bench-regression budget."""
        clean = golden_serve_config()
        protected = dataclasses.replace(
            clean, integrity=IntegrityConfig(enabled=True,
                                             scrub_interval_s=0.05))
        clean_qps = ServingSimulator(clean).run().throughput_qps
        protected_qps = ServingSimulator(protected).run().throughput_qps
        assert protected_qps < clean_qps
        assert protected_qps > 0.9 * clean_qps


class TestConfigPlumbing:
    def test_serve_config_validates_integrity_type(self):
        with pytest.raises(ValueError, match="integrity"):
            dataclasses.replace(golden_serve_config(),
                                integrity={"enabled": True})

    def test_golden_integrity_config_shape(self):
        config = golden_integrity_config()
        assert config.integrity.enabled
        assert config.integrity.scrubbing
        assert len(config.faults.bit_flips) == 3
        targets = {flip.target for flip in config.faults.bit_flips}
        assert targets == {"vr", "dma", "stuck"}
