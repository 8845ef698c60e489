"""Vectorized simulation core (``repro.simcore``).

A NumPy columnar backend for the serving simulator: plain fault-free
static ``run()`` reports from its :class:`ArraySchedule` columns,
bit-identical to the serving event loop
(:class:`~repro.serve.scheduler.PoolLoop`, pinned to the fleet;
``tests/simcore`` is the proof) at two-plus orders of magnitude more
simulated queries per wall-second.  Every object-form result (fault
plans, telemetry, monitors, traces) comes from that event loop.
Select it with ``ServeConfig(engine="vectorized")`` or ``repro serve
--engine``.
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "arrays": ("ArraySchedule",),
    "engine": (
        "DEFAULT_ENGINE", "ENGINES", "UnknownEngineError", "validate_engine"),
    "vectorized": ("VectorizedScheduler",),
})
