"""The four serving workloads of the end-to-end simulator benchmark.

Every workload is an open-loop arrival stream generated from the
benchmark seed, served by ``engine="vectorized"`` (the engine the
project keeps; the scalar engine only appears as the parity oracle),
and ends in one user action: ``run()`` (plain ``repro serve``) or
``run_with_monitor()`` (``repro monitor`` / ``serve --bundle-out``).

The two ``*_faults_observed`` workloads replay one fixed chaos script
(drawn once from :data:`CHAOS_SEED`: one permanent shard death plus
stalls, outages and healed bit flips) while their arrivals follow the
seed.  Host time then measures the fault path itself rather than which
plan a seed happened to draw -- different plans differ in deaths and
would move wall time by more than the regression bounds.

This module imports no ``repro`` code at import time, so the parent
benchmark process stays light and can list workloads without ``src/``.
"""

from dataclasses import dataclass

#: Seed of the fixed fault script shared by the observed workloads.
CHAOS_SEED = 0
#: Arrivals replayed on both engines for the scalar-oracle parity check.
PARITY_SLICE = 2000
ENGINE = "vectorized"


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is recorded in ``BENCHMARK.json``."""

    name: str
    #: Requests offered at ``--scale 1``.
    n_requests: int
    elastic: bool
    #: The action is ``run_with_monitor()`` instead of ``run()``.
    observed: bool

    def size(self, scale: float) -> int:
        return max(1, int(round(self.n_requests * scale)))


# Sizes keep one action within ~0.5-1 s on a 2-vCPU host, so one run
# takes the median of 10-20 cold-start reps: per-rep noise on a shared
# host is 10-25%, and more reps shrink it faster than longer actions
# do.  The observed workloads are the noisiest per rep and their span
# and monitor builders grow faster than linearly in requests, so they
# stay smallest.
WORKLOADS = {w.name: w for w in (
    Workload("static_steady", 60_000, elastic=False, observed=False),
    Workload("elastic_bursty", 60_000, elastic=True, observed=False),
    Workload("static_faults_observed", 2_000, elastic=False, observed=True),
    Workload("elastic_faults_observed", 2_000, elastic=True, observed=True),
)}


def import_repro():
    """Import the modules every workload configures (timed as set-up)."""
    import repro.ecc  # noqa: F401
    import repro.faults  # noqa: F401
    import repro.integrity  # noqa: F401
    import repro.rag  # noqa: F401
    import repro.scale  # noqa: F401
    import repro.serve  # noqa: F401


def _chaos(horizon_s):
    from repro.faults import FaultPlan

    return FaultPlan.random(
        CHAOS_SEED, 8, horizon_s, stall_rate=0.5, outage_rate=0.5,
        permanent_fraction=0.25, max_slowdown=2.0,
    ).merged_with(FaultPlan.random_bit_flips(
        CHAOS_SEED, 8, horizon_s, flip_rate=2.0, stuck_fraction=0.0))


def make_inputs(name, seed, n):
    """``(arrival times, fault plan)`` generated from the seed.

    Static workloads get explicit Poisson times too, identical to the
    stream ``ServeConfig(qps, n, seed)`` draws, so the parity slice can
    cut their first arrivals.
    """
    from repro.faults import FaultPlan
    from repro.serve import bursty_arrival_times, poisson_arrival_times

    if name == "static_steady":
        return poisson_arrival_times(600.0, n, seed), FaultPlan()
    if name == "elastic_bursty":
        return bursty_arrival_times(700.0, n, seed, burst_multiplier=8.0,
                                    period_s=1.0, duty=0.2), FaultPlan()
    if name == "static_faults_observed":
        return poisson_arrival_times(400.0, n, seed), _chaos(n / 400.0)
    if name == "elastic_faults_observed":
        # A 0.5 s period puts ~7 burst cycles in the 2k-request horizon.
        # With a 2 s period (under two cycles) the seed decided how many
        # full garbage collections the action paid, which moved its
        # host time by up to 50% between seeds.
        return bursty_arrival_times(600.0, n, seed, burst_multiplier=4.0,
                                    period_s=0.5), _chaos(n / 600.0)
    raise KeyError(name)


def make_config(name, seed, n, faults, arrivals=None, engine=ENGINE):
    """The ``ScaleConfig`` of one workload.

    ``arrivals=None`` on a static workload leaves the Poisson draw to
    the simulator, as ``repro serve`` does; elastic workloads always
    take explicit times.
    """
    from repro.ecc import ECCConfig
    from repro.integrity import IntegrityConfig
    from repro.rag import PAPER_CORPORA
    from repro.scale import AdmissionPolicy, AutoscalePolicy, ScaleConfig, \
        ScalePolicy
    from repro.serve import BatchPolicy, RetryPolicy, ServeConfig

    if arrivals is not None:
        arrivals = tuple(float(t) for t in arrivals)
        n = len(arrivals)

    def elastic_policy(lo, hi):
        return ScalePolicy(
            autoscale=AutoscalePolicy(min_shards=lo, max_shards=hi,
                                      control_interval_s=0.005,
                                      scale_up_step=2, cooldown_s=0.040),
            admission=AdmissionPolicy(shed_queue_batches=4.0))

    if name == "static_steady":
        serve = ServeConfig(spec=PAPER_CORPORA["200GB"], n_shards=8,
                            batch=BatchPolicy(max_batch=16), qps=600.0,
                            n_requests=n, seed=seed, slo_s=0.530,
                            engine=engine)
        return ScaleConfig(serve=serve, arrivals=arrivals)
    if name == "elastic_bursty":
        serve = ServeConfig(spec=PAPER_CORPORA["10GB"], n_shards=2, qps=700.0,
                            n_requests=n, seed=seed, slo_s=0.512,
                            engine=engine)
        return ScaleConfig(serve=serve, policy=elastic_policy(2, 6),
                           arrivals=arrivals)
    chaos = dict(faults=faults, retry=RetryPolicy(timeout_s=0.050))
    if name == "static_faults_observed":
        serve = ServeConfig(
            spec=PAPER_CORPORA["50GB"], n_shards=8, qps=400.0, n_requests=n,
            seed=seed, slo_s=0.512, engine=engine,
            integrity=IntegrityConfig(enabled=True, scrub_interval_s=0.050),
            **chaos)
        return ScaleConfig(serve=serve, arrivals=arrivals)
    if name == "elastic_faults_observed":
        serve = ServeConfig(
            spec=PAPER_CORPORA["50GB"], n_shards=8, qps=600.0, n_requests=n,
            seed=seed, slo_s=0.512, engine=engine,
            ecc=ECCConfig(enabled=True, tier="secded"), **chaos)
        return ScaleConfig(serve=serve, policy=elastic_policy(8, 12),
                           arrivals=arrivals)
    raise KeyError(name)


def act(simulator, observed):
    """The user action: ``(report, telemetry or None, monitor or None)``."""
    if observed:
        return simulator.run_with_monitor()
    return simulator.run(), None, None
