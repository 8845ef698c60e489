"""Engine selection for the static serving simulator.

Two execution backends serve a plain fault-free static
(autoscaler-off) ``run()``:

* ``"scalar"`` -- the reference :class:`~repro.serve.scheduler.DiscreteEventScheduler`,
  a plain binary-heap event loop.  Slow, obviously correct, and the
  bit-exactness oracle for everything else.
* ``"vectorized"`` -- :class:`~repro.simcore.vectorized.VectorizedScheduler`,
  which batch-evaluates independent per-shard timelines with NumPy into
  order-free columns and reports from them.  Validated bit-identical
  against the scalar core by ``tests/simcore``.

Every :class:`~repro.serve.scheduler.ScheduleResult` -- fault plans,
telemetry, monitors, traces -- comes from the scalar event loop on
either engine, and elastic (autoscaled) runs have a single event loop.
This module owns only the names and the validation so that config and
CLI layers can import it without pulling in the heavy backends.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["ENGINES", "DEFAULT_ENGINE", "UnknownEngineError",
           "validate_engine"]

#: Supported simulation engines, in documentation order.
ENGINES: Tuple[str, ...] = ("scalar", "vectorized")

#: Engine used when a config does not name one.
DEFAULT_ENGINE = "scalar"


class UnknownEngineError(ValueError):
    """Raised when a config names a simulation engine that doesn't exist.

    A ``ValueError`` subclass so existing ``ServeConfig`` validation
    handling keeps working, but typed so callers (and tests) can catch
    the engine case specifically.
    """

    def __init__(self, engine: object):
        self.engine = engine
        choices = ", ".join(repr(name) for name in ENGINES)
        super().__init__(
            f"unknown simulation engine {engine!r}; choose one of "
            f"{choices} (\"scalar\" is the reference event loop, "
            f"\"vectorized\" is the NumPy core validated bit-identical "
            f"against it)")


def validate_engine(engine: object) -> str:
    """Return ``engine`` if it names a known backend, else raise.

    Raises :class:`UnknownEngineError` -- a ``ValueError`` -- for
    anything that is not exactly one of :data:`ENGINES` (including
    non-string values and case variants, which would otherwise fail
    deep inside scheduler construction).
    """
    if not isinstance(engine, str) or engine not in ENGINES:
        raise UnknownEngineError(engine)
    return engine
