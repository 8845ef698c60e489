"""Deterministic fault injection for the sharded serving stack.

``repro.faults`` scripts device misbehavior -- transient stalls, hard
and transient shard outages, slow-start recovery, and silent bit-level
corruption -- as pure data (:class:`~repro.faults.plan.FaultPlan`) and
answers runtime fault-state queries through
:class:`~repro.faults.injector.FaultInjector`.  The serving scheduler
(:mod:`repro.serve.scheduler`) consumes the injector to drive per-batch
timeouts, capped-exponential-backoff retries, and shard failover, and
the :mod:`repro.integrity` subsystem consumes the bit-flip queries to
corrupt (and then defend) real vector-register contents; everything is
a pure function of the plan and the request seed, so chaos runs replay
bit-identically and a zero-fault plan is indistinguishable from no plan
at all.
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "injector": ("FaultInjector",),
    "plan": (
        "BIT_FLIP_TARGETS", "BitFlipFault", "FaultLogEntry", "FaultPlan",
        "OutageFault", "StallFault", "check_outage_consistency"),
})
