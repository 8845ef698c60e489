"""The paper's primary contribution: the compute-in-SRAM analytical framework.

Public surface:

* :class:`~repro.core.params.APUParams` and the Table 4/5 cost tables.
* :class:`~repro.core.estimator.LatencyEstimator` — the Fig. 6 framework.
* :mod:`repro.core.api` — the GVML-mirroring function library.
* :mod:`repro.core.reduction_model` — Eq. 1 and its fitting procedure.
* :class:`~repro.core.roofline.RooflineModel` — Fig. 2.
* :class:`~repro.core.dse.DesignSpaceExplorer` — parameter sweeps.
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "estimator": ("LatencyEstimator", "OpRecord", "current_estimator"),
    "params": (
        "APUParams", "ComputeCosts", "DataMovementCosts", "DEFAULT_PARAMS",
        "DEVICE_SPECS", "DeviceSpec", "ReductionCoefficients",
        "SecondOrderEffects", "cycles_to_ms", "cycles_to_seconds",
        "cycles_to_us"),
    "reduction_model": (
        "FitResult", "fit_reduction_coefficients", "reduction_sample_grid",
        "simulated_sg_add_cycles"),
    "reporting": ("format_bars", "format_stacked_breakdown", "format_table"),
    "serialization": (
        "load_params", "params_from_dict", "params_to_dict", "save_params"),
    "roofline": ("KernelPoint", "RooflineModel"),
    "dse": (
        "DesignSpaceExplorer", "SweepPoint", "SweepResult", "evolve_nested"),
})
