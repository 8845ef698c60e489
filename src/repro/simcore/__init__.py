"""Vectorized simulation core (``repro.simcore``).

A NumPy execution backend for the serving simulator that reproduces
the scalar :class:`~repro.serve.scheduler.DiscreteEventScheduler`
bit-identically (``tests/simcore`` is the proof) at two-plus orders of
magnitude more simulated queries per wall-second.  It accelerates
fault-free static runs only; with a fault plan it runs the scalar
:class:`~repro.serve.scheduler.ShardMachine`.  Select it with
``ServeConfig(engine="vectorized")`` or ``repro serve --engine``.
"""

from .arrays import ArraySchedule
from .engine import DEFAULT_ENGINE, ENGINES, UnknownEngineError, \
    validate_engine
from .vectorized import VectorizedScheduler

__all__ = [
    "ArraySchedule",
    "DEFAULT_ENGINE",
    "ENGINES",
    "UnknownEngineError",
    "validate_engine",
    "VectorizedScheduler",
]
