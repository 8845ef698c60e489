"""Memory-level silent-data-corruption engine.

:class:`MemoryFaultInjector` is the functional half of the bit-flip
fault model: it attaches to an :class:`~repro.apu.device.APUDevice` via
``attach_sdc`` and corrupts real data on the two channels where upsets
land in practice:

* **VR writes** -- every ``APUCore.vr_write`` passes its fresh copy
  through :meth:`corrupt_vr_write`.  Transient ``"vr"`` flips pend until
  the next write to their target VR and are consumed exactly once;
  ``"stuck"`` faults are stuck-at-1 cells re-applied on *every* write to
  the target VR (an OR mask, like a shorted SRAM cell).
* **DMA payloads** -- functional read-side DMA/PIO paths pass the moved
  bytes through :meth:`corrupt_dma_payload`; a ``"dma"`` flip corrupts a
  ``burst_bits``-wide run of bits in one element of the next transfer.

Corruption is fully deterministic: scripted flips come from the seeded
:class:`~repro.faults.plan.BitFlipFault` entries of a ``FaultPlan``, and
the optional rate mode draws from its own ``numpy`` generator seeded at
construction.  Every actual data change is appended to :attr:`log` as a
:class:`FlipRecord`, which is what the property-based tests replay
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..ecc.codecs import STATUS_DETECTED, VERDICT_CORRECTED, \
    VERDICT_DETECTED, VERDICT_MISCORRECT
from ..ecc.config import ECCConfig, make_codec
from ..faults.plan import BitFlipFault

__all__ = ["FlipRecord", "MemoryFaultInjector"]


@dataclass(frozen=True)
class FlipRecord:
    """One actual data corruption: where it hit and what it changed."""

    #: Which channel was corrupted: ``"vr"``, ``"dma"``, or ``"stuck"``.
    site: str
    #: Target VR index for VR-channel hits; -1 for DMA payloads.
    vr: int
    #: Element index within the vector / payload.
    element: int
    #: Lowest corrupted bit position.
    bit: int
    #: Element value before corruption.
    before: int
    #: Element value after corruption.
    after: int


class MemoryFaultInjector:
    """Deterministic bit-flip engine for the functional APU model.

    Parameters
    ----------
    flips:
        Transient :class:`BitFlipFault` entries (targets ``"vr"`` and
        ``"dma"``); each is consumed by the first matching write or
        transfer after attachment, in plan order.
    stuck:
        Persistent ``"stuck"`` faults: stuck-at-1 cells OR-ed into every
        write of the target VR.
    upset_rate:
        Optional per-operation upset probability (``0.0`` disables): on
        each VR write or DMA payload an independent draw decides whether
        a uniformly random (element, bit) flips.  Seeded, so replays are
        bit-identical for a fixed ``seed``.
    seed:
        Seed for the rate-mode generator.
    ecc:
        Optional enabled :class:`~repro.ecc.ECCConfig`.  When set,
        every corrupted write/transfer is post-processed through the
        configured codec: the affected codewords are re-encoded from
        their pre-upset data, the actual error pattern is applied, and
        the decoder's verdict takes effect on the stored bits --
        corrected codewords are restored, detected-uncorrectable ones
        keep the raw damage (the controller flags them), and
        beyond-capability miscorrections overwrite the word with the
        decoder's *wrong* correction.  Verdicts are counted and logged
        in :attr:`ecc_events`.
    """

    def __init__(self, flips: Iterable[BitFlipFault] = (),
                 stuck: Iterable[BitFlipFault] = (),
                 upset_rate: float = 0.0, seed: int = 0,
                 ecc: Optional[ECCConfig] = None):
        if not 0.0 <= upset_rate <= 1.0:
            raise ValueError(
                f"upset_rate must be a probability in [0, 1], "
                f"got {upset_rate!r}")
        self._pending_vr: List[BitFlipFault] = []
        self._pending_dma: List[BitFlipFault] = []
        self._stuck: List[BitFlipFault] = []
        for fault in flips:
            if fault.persistent:
                raise ValueError(
                    f"stuck-at faults belong in the 'stuck' argument: {fault}")
            if fault.target == "vr":
                self._pending_vr.append(fault)
            else:
                self._pending_dma.append(fault)
        for fault in stuck:
            if not fault.persistent:
                raise ValueError(
                    f"transient fault passed as stuck-at: {fault}")
            self._stuck.append(fault)
        self.upset_rate = float(upset_rate)
        self._rng = np.random.default_rng(seed)
        if ecc is not None and not ecc.enabled:
            raise ValueError(
                "pass ecc=None to disable protection; a disabled "
                "ECCConfig here is almost certainly a mistake")
        self.ecc = ecc
        self._codec = make_codec(ecc) if ecc is not None else None
        #: Every corruption that changed data, in the order it happened.
        self.log: List[FlipRecord] = []
        #: ECC decode verdicts: ``(site, codeword_index, verdict)`` per
        #: struck codeword, in the order the decoder saw them.
        self.ecc_events: List[Tuple[str, int, str]] = []
        self.n_vr_flips = 0
        self.n_dma_flips = 0
        self.n_stuck_hits = 0
        self.n_ecc_corrected = 0
        self.n_ecc_detected = 0
        self.n_ecc_miscorrected = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_corruptions(self) -> int:
        """Total data changes across all channels."""
        return len(self.log)

    @property
    def pending(self) -> int:
        """Scripted transient flips not yet consumed."""
        return len(self._pending_vr) + len(self._pending_dma)

    # ------------------------------------------------------------------
    # Corruption channels (called from the APU functional model)
    # ------------------------------------------------------------------
    def corrupt_vr_write(self, vr: int, arr: np.ndarray) -> None:
        """Corrupt a VR write in place (``arr`` is the core's own copy)."""
        orig = arr.copy() if self._codec is not None else None
        consumed: Optional[int] = None
        for i, fault in enumerate(self._pending_vr):
            if fault.vr == vr:
                consumed = i
                break
        if consumed is not None:
            fault = self._pending_vr.pop(consumed)
            element = fault.element % arr.size
            self._flip(arr, element, fault.bit, 1, site="vr", vr=vr)
            self.n_vr_flips += 1
        if self.upset_rate and self._rng.random() < self.upset_rate:
            element = int(self._rng.integers(0, arr.size))
            bit = int(self._rng.integers(0, 16))
            self._flip(arr, element, bit, 1, site="vr", vr=vr)
            self.n_vr_flips += 1
        for fault in self._stuck:
            if fault.vr != vr:
                continue
            element = fault.element % arr.size
            mask = np.uint16(1 << fault.bit)
            before = int(arr[element])
            if before & int(mask):
                continue  # cell already reads 1: the short is invisible
            arr[element] = np.uint16(before | int(mask))
            self.n_stuck_hits += 1
            self.log.append(FlipRecord(
                site="stuck", vr=vr, element=element, bit=fault.bit,
                before=before, after=int(arr[element])))
        if orig is not None:
            self._ecc_pass("vr", orig, arr)

    def corrupt_dma_payload(self, data: np.ndarray) -> np.ndarray:
        """Return ``data`` with any pending DMA burst error applied.

        ``data`` may be a view into backing storage (``l4.read``), so the
        payload is copied before mutation.  Handles both ``uint8`` and
        ``uint16`` payload dtypes; the burst is clipped at the element's
        word width, matching a burst error inside one beat.
        """
        rate_hit = bool(
            self.upset_rate and self._rng.random() < self.upset_rate)
        if not self._pending_dma and not rate_hit:
            return data
        width = data.dtype.itemsize * 8
        out = data.copy()
        if out.size == 0:
            return out
        if self._pending_dma:
            fault = self._pending_dma.pop(0)
            element = fault.element % out.size
            bit = min(fault.bit, width - 1)
            n_bits = min(fault.burst_bits, width - bit)
            self._flip(out, element, bit, n_bits, site="dma", vr=-1)
            self.n_dma_flips += 1
        if rate_hit:
            element = int(self._rng.integers(0, out.size))
            bit = int(self._rng.integers(0, width))
            self._flip(out, element, bit, 1, site="dma", vr=-1)
            self.n_dma_flips += 1
        if self._codec is not None:
            self._ecc_pass("dma", data, out)
        return out

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ecc_pass(self, site: str, orig: np.ndarray,
                  arr: np.ndarray) -> None:
        """Run the codec over every codeword an upset actually struck.

        ``orig`` is the pre-upset payload (the encode-side data),
        ``arr`` the damaged one.  The decoder's verdict lands on the
        stored bits: corrected codewords restore the original words,
        detected-uncorrectable ones keep the raw damage, and
        miscorrections overwrite with the decoder's wrong data.
        """
        assert self._codec is not None and self.ecc is not None
        codec = self._codec
        width = arr.dtype.itemsize * 8
        words = self.ecc.data_bits // width
        changed = np.nonzero(orig != arr)[0]
        struck = sorted({int(e) // words for e in changed})
        for cw in struck:
            lo = cw * words
            hi = min(lo + words, arr.size)
            data = 0
            error = 0
            for j in range(lo, hi):
                data |= int(orig[j]) << ((j - lo) * width)
                error |= (int(orig[j]) ^ int(arr[j])) << ((j - lo) * width)
            code = codec.encode(data)
            for b in range(self.ecc.data_bits):
                if error >> b & 1:
                    code ^= 1 << codec.data_position(b)
            decoded, status = codec.decode(code)
            if status == STATUS_DETECTED:
                verdict = VERDICT_DETECTED
                self.n_ecc_detected += 1
            elif decoded == data:
                verdict = VERDICT_CORRECTED
                self.n_ecc_corrected += 1
                for j in range(lo, hi):
                    arr[j] = orig[j]
            else:
                verdict = VERDICT_MISCORRECT
                self.n_ecc_miscorrected += 1
                for j in range(lo, hi):
                    arr[j] = arr.dtype.type(
                        decoded >> ((j - lo) * width) & ((1 << width) - 1))
            self.ecc_events.append((site, cw, verdict))

    def _flip(self, arr: np.ndarray, element: int, bit: int, n_bits: int,
              site: str, vr: int) -> None:
        mask = 0
        for b in range(bit, bit + n_bits):
            mask |= 1 << b
        before = int(arr[element])
        arr[element] = arr.dtype.type(before ^ mask)
        self.log.append(FlipRecord(
            site=site, vr=vr, element=element, bit=bit,
            before=before, after=int(arr[element])))
