"""One APU core: vector registers, markers, private L1/L2, and its trace.

An :class:`APUCore` owns the per-core state of Fig. 3(b): 24 vector
registers, the marker bank, 48 L1 background registers, the 64 KB L2
scratchpad, two DMA engines, and a GVML execution unit.  Cycle
accounting reuses :class:`repro.core.estimator.LatencyEstimator` as the
trace (sections, parallel tracks and breakdowns work identically), but
the core adds the simulator-only second-order costs -- per-command VCU
issue overhead here, DRAM refresh in the DMA engines -- which is what
separates "measured" simulator latencies from the closed-form analytical
predictions in the Table 7 validation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..core.estimator import LatencyEstimator
from ..core.params import APUParams, DEFAULT_PARAMS
from ..obs import collector as _trace_collector
from .dma import DMAController
from .gvml import GVML
from .memory import MemoryError_, Scratchpad, VMRFile

__all__ = ["APUCore", "NUM_MARKERS"]

#: Number of marker (mask) registers per core.
NUM_MARKERS = 16


class APUCore:
    """A single APU vector core.

    Parameters
    ----------
    params:
        Architecture parameter bundle.
    device:
        Owning :class:`repro.apu.device.APUDevice` (provides shared L3
        and L4); ``None`` for a standalone core with no off-chip access.
    functional:
        ``True`` -> NumPy-backed execution (results + cycles);
        ``False`` -> timing-only (cycles, no data), for paper-scale runs.
    core_id:
        Index of this core on the device.
    """

    def __init__(self, params: APUParams = DEFAULT_PARAMS, device=None,
                 functional: bool = True, core_id: int = 0):
        self.params = params
        self.device = device
        self.functional = functional
        self.core_id = core_id
        self.trace = LatencyEstimator(params, core_id=core_id)
        self.vrs: List[Optional[np.ndarray]] = [None] * params.num_vrs
        self.markers: Dict[int, Optional[np.ndarray]] = {
            i: None for i in range(NUM_MARKERS)
        }
        self.l1 = VMRFile(params)
        self.l2 = Scratchpad(params)
        self.gvml = GVML(self)
        self.dma = DMAController(self)
        #: Estimated microcode instruction count (Table 6 statistics).
        self.micro_instructions = 0
        #: Optional silent-data-corruption engine
        #: (:class:`repro.integrity.inject.MemoryFaultInjector`); when
        #: attached, every functional VR write and DMA payload passes
        #: through it.  ``None`` leaves all data paths untouched.
        self.sdc = None

    # ------------------------------------------------------------------
    # Cycle accounting
    # ------------------------------------------------------------------
    def charge_command(self, name: str, cycles: float, count: int = 1,
                       micro_ops: int = 1, nbytes: int = 0) -> None:
        """Charge a vector command issued through the CP/VCU.

        Adds the simulator-only VCU decode/issue overhead per command.
        ``nbytes`` (bytes moved per execution) feeds the trace events.
        """
        issue = self.params.effects.vcu_issue_cycles
        self.trace.record(name, cycles + issue, count, bytes_moved=nbytes)
        self.micro_instructions += micro_ops * count

    def charge_raw(self, name: str, cycles: float, count: int = 1,
                   nbytes: int = 0) -> None:
        """Charge cycles with no issue overhead (DMA engine internals)."""
        self.trace.record(name, cycles, count, bytes_moved=nbytes)

    @property
    def cycles(self) -> float:
        """Total cycles this core has consumed."""
        return self.trace.total_cycles

    def section(self, label: str):
        """Attribute enclosed commands to a breakdown section."""
        return self.trace.section(label)

    def parallel(self):
        """Model overlapped engine activity (critical-path charging)."""
        return self.trace.parallel()

    def reset_trace(self) -> None:
        """Clear accumulated cycles (keeps architectural state)."""
        self.trace.reset()
        self.micro_instructions = 0

    # ------------------------------------------------------------------
    # Architectural state access
    # ------------------------------------------------------------------
    def _check_vr(self, vr: int) -> None:
        if not 0 <= vr < self.params.num_vrs:
            raise MemoryError_(
                f"VR index {vr} out of range 0..{self.params.num_vrs - 1}"
            )

    def vr_read(self, vr: int) -> np.ndarray:
        """Functional read of a VR (zeros if never written)."""
        self._check_vr(vr)
        if not self.functional:
            raise MemoryError_("VR contents are unavailable in timing-only mode")
        data = self.vrs[vr]
        if data is None:
            return np.zeros(self.params.vr_length, dtype=np.uint16)
        return data.copy()

    def vr_write(self, vr: int, values: Optional[np.ndarray]) -> None:
        """Functional write of a VR (no-op in timing-only mode)."""
        self._check_vr(vr)
        if not self.functional:
            return
        if values is None:
            self.vrs[vr] = None
            return
        arr = np.asarray(values, dtype=np.uint16)
        if arr.shape != (self.params.vr_length,):
            raise MemoryError_(
                f"VR writes are full-vector: expected ({self.params.vr_length},), "
                f"got {arr.shape}"
            )
        self.vrs[vr] = arr.copy()
        if self.sdc is not None:
            self.sdc.corrupt_vr_write(vr, self.vrs[vr])
        collector = (self.trace.collector if self.trace.collector is not None
                     else _trace_collector.ACTIVE)
        if collector is not None and collector.enabled:
            collector.note_vr_occupancy(
                sum(1 for data in self.vrs if data is not None)
            )

    def marker_read(self, marker: int) -> np.ndarray:
        """Functional read of a marker register as a boolean vector."""
        if marker not in self.markers:
            raise MemoryError_(f"marker {marker} out of range 0..{NUM_MARKERS - 1}")
        if not self.functional:
            raise MemoryError_("markers are unavailable in timing-only mode")
        data = self.markers[marker]
        if data is None:
            return np.zeros(self.params.vr_length, dtype=bool)
        return data.copy()

    def marker_write(self, marker: int, values: Optional[np.ndarray]) -> None:
        """Functional write of a marker register."""
        if marker not in self.markers:
            raise MemoryError_(f"marker {marker} out of range 0..{NUM_MARKERS - 1}")
        if not self.functional:
            return
        if values is None:
            self.markers[marker] = None
            return
        arr = np.asarray(values, dtype=bool)
        if arr.shape != (self.params.vr_length,):
            raise MemoryError_(
                f"marker writes are full-vector: got {arr.shape}"
            )
        self.markers[marker] = arr.copy()

    # ------------------------------------------------------------------
    # Shared memory shortcuts
    # ------------------------------------------------------------------
    @property
    def l3(self):
        """The device-shared L3 CP cache."""
        if self.device is None:
            raise MemoryError_("standalone core has no L3; attach to an APUDevice")
        return self.device.l3

    @property
    def l4(self):
        """The device-shared L4 DRAM."""
        if self.device is None:
            raise MemoryError_("standalone core has no L4; attach to an APUDevice")
        return self.device.l4
