"""Functional + timing simulator of the GSI APU compute-in-SRAM device.

Layers, bottom-up:

* :mod:`repro.apu.bitproc` / :mod:`repro.apu.microcode` -- the bit-slice
  bank and Table 2 micro-operations, with bit-serial arithmetic built on
  them (functional ground truth for the vector ISA).
* :mod:`repro.apu.memory` -- the L4/L3/L2/L1 hierarchy.
* :mod:`repro.apu.dma` -- DMA engines, PIO, indexed lookup (Table 4 costs).
* :mod:`repro.apu.gvml` -- the vector math library (Table 5 costs).
* :mod:`repro.apu.core` / :mod:`repro.apu.device` -- cores and the
  four-core device with its GDL-style host interface.
* :mod:`repro.apu.energy` -- the calibrated board energy model.
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "bitproc": ("BitProcessorArray", "MicrocodeError"),
    "core": ("APUCore", "NUM_MARKERS"),
    "device": ("APUDevice", "TaskResult"),
    "dma": ("DMAController",),
    "energy": ("APUEnergyModel", "EnergyBreakdown", "categorize_op"),
    "gvml": ("GVML", "GVMLError"),
    "memory": (
        "AllocationError", "CPCache", "DeviceDRAM", "MemHandle",
        "MemoryError_", "Scratchpad", "VMRFile"),
    "assembler": ("AssemblerError", "assemble", "run_program"),
    "profiler": ("DeviceProfiler", "linear_fit"),
    "rvv": ("RVVError", "RVVMachine"),
})
