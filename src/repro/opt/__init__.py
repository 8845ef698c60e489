"""The paper's three data-movement/layout optimizations (Section 4).

* :mod:`repro.opt.reduction` -- communication-aware reduction mapping
  and the closed-form Eqs. 2-14.
* :mod:`repro.opt.coalesce` -- DMA coalescing planner (Fig. 10).
* :mod:`repro.opt.layout` -- Graphene-style layouts and the
  broadcast-friendly transform (Fig. 11).
* :mod:`repro.opt.matmul` -- the executable binary-matmul kernels that
  realize the Fig. 12 optimization ladder on the simulator.
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "coalesce": (
        "CoalescePlan", "TransferRequest", "coalescing_saving", "naive_cycles",
        "plan_coalescing"),
    "layout": (
        "Dim", "Layout", "LayoutError", "broadcast_friendly",
        "broadcast_window_addresses", "broadcast_window_span",
        "lookup_table_entries"),
    "matmul": (
        "BaselineMatmul", "BinaryMatmulKernel", "MatmulResult", "Opt1Matmul",
        "Opt2Matmul", "Opt3Matmul", "STAGE_ORDER", "pack_operands",
        "reference_binary_matmul", "run_all_stages"),
    "planner": ("OptimizationPlan", "OptimizationPlanner", "PlanDecision"),
    "reduction": (
        "CostBreakdown", "MatmulCostModel", "MatmulShape", "ReductionMapping"),
})
