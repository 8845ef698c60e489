"""Closed-loop elastic serving: autoscaling, admission, load shedding.

``repro.serve`` simulates a *static* deployment -- a fixed shard count
fed by an open-loop arrival stream.  This package closes the loop: an
:class:`~repro.scale.pool.ElasticAPUDevicePool` whose
:class:`~repro.scale.controller.BurnRateController` attaches and
detaches simulated APU devices driven by online SLO error-budget burn
(the same :class:`~repro.telemetry.metrics.BurnWindow` arithmetic the
telemetry layer reports), admission control with priority classes and
load shedding under overload, and closed-loop client populations with
think time.  Warm-up is physical: an attached device serves nothing
until its corpus slice has streamed through the simulated HBM.

The whole stack stays bit-deterministic, and with no policy attached
:class:`~repro.scale.simulator.ScaleSimulator` *is* the static
simulator -- same reports, traces, and spans, bit for bit -- which the
differential suite in ``tests/scale`` pins on both engines.
"""

# Unlike every other package, this one imports eagerly: it is the
# serving entry point, so importing it loads the whole serving stack
# before any run starts (``tests/test_imports.py`` pins that set).
from .controller import SCALE_DOWN, SCALE_UP, BurnRateController
from .policy import (
    DEFAULT_PRIORITY_CLASSES,
    AdmissionPolicy,
    AdmissionPolicyError,
    AutoscalePolicy,
    ElasticPoolError,
    PoolBoundsError,
    PriorityClass,
    PriorityMapError,
    ScalePolicy,
    ScalePolicyError,
    parse_priority_map,
)
from .pool import ElasticAPUDevicePool
from .simulator import (
    ScaleAction,
    ScaleConfig,
    ScaleConfigError,
    ScaleReport,
    ScaleSimulator,
    golden_autoscale_config,
    golden_autoscale_fault_config,
)
from .telemetry import build_scale_metrics

__all__ = [
    "AdmissionPolicy",
    "AdmissionPolicyError",
    "AutoscalePolicy",
    "BurnRateController",
    "DEFAULT_PRIORITY_CLASSES",
    "ElasticAPUDevicePool",
    "ElasticPoolError",
    "PoolBoundsError",
    "PriorityClass",
    "PriorityMapError",
    "SCALE_DOWN",
    "SCALE_UP",
    "ScaleAction",
    "ScaleConfig",
    "ScaleConfigError",
    "ScalePolicy",
    "ScalePolicyError",
    "ScaleReport",
    "ScaleSimulator",
    "build_scale_metrics",
    "golden_autoscale_config",
    "golden_autoscale_fault_config",
    "parse_priority_map",
]
