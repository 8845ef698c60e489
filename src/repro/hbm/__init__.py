"""Off-chip memory substrates: HBM2e (simulated, Section 5.3.1) and DDR4.

Replaces the paper's Ramulator 2 + DRAMPower 5.0 stack with a
bank/channel timing model and an IDD-style energy model.
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "dram": ("AccessPattern", "DRAMModel", "DRAMOrganization", "DRAMTiming"),
    "hbm2e": (
        "DDR4_ORGANIZATION", "DDR4_TIMING", "HBM2E_ORGANIZATION",
        "HBM2E_TIMING", "make_ddr4", "make_hbm2e"),
    "power": (
        "DDR4_POWER", "DRAMEnergy", "DRAMPowerModel", "DRAMPowerParams",
        "HBM2E_POWER"),
})
