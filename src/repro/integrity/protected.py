"""ABFT-protected retrieval: end-to-end verified, bounded recompute.

:class:`ProtectedAPURetriever` wraps the optimized
:class:`~repro.rag.retrieval.APURetriever` functional pipeline with the
checksum machinery of :mod:`repro.integrity.abft`:

1. **Verified distances.**  Each MAC block's accumulator VR is checked
   against the host-side column-checksum prediction
   (``dot(query, colsum(block)) mod 2**16`` -- the mod-``2**16``
   homomorphism makes the prediction exact for the wrapping u16
   arithmetic).  A mismatch triggers a full recompute of that block,
   bounded by :attr:`IntegrityConfig.max_recomputes`.
2. **Verified top-k.**  The verified score vectors are snapshotted, the
   expected extraction is replicated on the host (same masking and
   tie-breaking as :func:`~repro.rag.topk.apu_topk`), and the device
   result is compared.  Because ``apu_topk`` *destroys* its score VRs
   (padding is masked, each winner is zeroed out), a retry first
   restores the score VRs from the verified snapshots.

Under the standard ABFT single-error-per-checked-unit assumption, any
transient flip either leaves the data bit-identical (a benign
``q_d * 2**b = 0 (mod 2**16)`` operand flip) or is detected and healed
by recompute, so the returned top-k is bit-identical to a fault-free
run.  A fault that survives the recompute budget (a stuck-at cell)
raises :class:`~repro.integrity.abft.IntegrityError` -- the serving
layer's cue to fail the shard over instead of retrying forever.

The checkers themselves are assumed reliable (they read state through
the host backdoor rather than writable device VRs) and their cycle cost
is charged from the :class:`~repro.integrity.config.IntegrityCostModel`
calibration of the equivalent GVML sequences, under ``integrity_*`` op
names that land on the INTEGRITY trace lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..apu.device import APUDevice
from ..core.params import APUParams, DEFAULT_PARAMS
from ..hbm.dram import DRAMModel
from ..rag.corpus import MiniCorpus
from ..rag.retrieval import APURetriever
from ..rag.topk import apu_topk
from .abft import IntegrityError, host_checksum
from .config import IntegrityConfig, get_cost_model

__all__ = ["IntegrityError", "IntegrityStats", "ProtectedAPURetriever"]


@dataclass
class IntegrityStats:
    """Running totals of the protection machinery's activity."""

    #: Checksum / top-k verifications performed.
    n_checks: int = 0
    #: Verifications that found corrupted state.
    n_detected: int = 0
    #: Bounded recomputes issued to heal detections.
    n_recomputes: int = 0

    def reset(self) -> None:
        self.n_checks = 0
        self.n_detected = 0
        self.n_recomputes = 0

    def export_to(self, registry, shard: Optional[int] = None) -> None:
        """Accumulate these totals into a telemetry metrics registry.

        ``registry`` is a :class:`repro.telemetry.MetricsRegistry` (duck
        typed to keep this module import-light); an optional ``shard``
        labels the samples for per-device attribution.
        """
        labels = {} if shard is None else {"shard": str(shard)}
        registry.counter(
            "repro_abft_checks_total",
            "Checksum / top-k verifications performed",
        ).inc(self.n_checks, **labels)
        registry.counter(
            "repro_abft_detected_total",
            "Verifications that found corrupted state",
        ).inc(self.n_detected, **labels)
        registry.counter(
            "repro_abft_recomputes_total",
            "Bounded recomputes issued to heal detections",
        ).inc(self.n_recomputes, **labels)


class ProtectedAPURetriever(APURetriever):
    """The optimized APU retriever with ABFT verification wrapped in.

    Parameters
    ----------
    params, hbm:
        As for :class:`~repro.rag.retrieval.APURetriever`.
    config:
        Integrity knobs; ``enabled`` must be true (instantiating the
        protected retriever just to disable it is a config bug).
    """

    def __init__(self, params: APUParams = DEFAULT_PARAMS,
                 hbm: Optional[DRAMModel] = None,
                 config: IntegrityConfig = IntegrityConfig(enabled=True)):
        super().__init__(optimized=True, params=params, hbm=hbm)
        if not config.enabled:
            raise ValueError(
                "ProtectedAPURetriever requires an enabled IntegrityConfig")
        self.config = config
        self.stats = IntegrityStats()
        self._costs = get_cost_model(params)

    # ------------------------------------------------------------------
    # Verified functional pipeline
    # ------------------------------------------------------------------
    def retrieve_with_scores(self, corpus: MiniCorpus, query: np.ndarray,
                             k: int = 5,
                             device: Optional[APUDevice] = None,
                             ) -> List[tuple]:
        """Exact top-k with every stage verified and recompute-healed."""
        if device is None:
            device = APUDevice(self.params)
        score_vrs, valid_counts = self._verified_distances(
            device, corpus, query)
        return self._verified_topk(device, score_vrs, valid_counts, k)

    def _verified_distances(self, device: APUDevice, corpus: MiniCorpus,
                            query: np.ndarray,
                            ) -> Tuple[List[int], List[int]]:
        """Dim-major MAC blocks, each column-checksum verified."""
        core = device.core
        vlen = self.params.vr_length
        n_blocks = -(-corpus.n_chunks // vlen)
        if n_blocks > 8:
            raise ValueError("mini corpus too large for the functional demo")
        budget = self.config.max_recomputes
        score_vrs: List[int] = []
        valid_counts: List[int] = []
        for block in range(n_blocks):
            lo = block * vlen
            hi = min(lo + vlen, corpus.n_chunks)
            acc = 4 + block
            reference = self._block_reference(corpus, query, lo, hi)
            for attempt in range(budget + 1):
                self._mac_block(device, corpus, query, block)
                observed = host_checksum(core.vr_read(acc))
                core.charge_raw("integrity_checksum",
                                self._costs.checksum_cycles, nbytes=2)
                self.stats.n_checks += 1
                if observed == reference:
                    break
                self.stats.n_detected += 1
                core.charge_raw("integrity_detect", 0.0)
                if attempt == budget:
                    raise IntegrityError(
                        f"MAC block {block} checksum still wrong after "
                        f"{budget} recomputes (stuck-at fault?)")
                self.stats.n_recomputes += 1
                core.charge_raw("integrity_recompute", 0.0)
            score_vrs.append(acc)
            valid_counts.append(hi - lo)
        return score_vrs, valid_counts

    def _mac_block(self, device: APUDevice, corpus: MiniCorpus,
                   query: np.ndarray, block: int) -> None:
        """One temporal-mapping MAC chain (the parent kernel's inner loop)."""
        core = device.core
        g = core.gvml
        vlen = self.params.vr_length
        lo = block * vlen
        hi = min(lo + vlen, corpus.n_chunks)
        acc = 4 + block
        g.cpy_imm_16(acc, 0)
        for d in range(corpus.dim):
            column = np.zeros(vlen, dtype=np.uint16)
            column[: hi - lo] = corpus.embeddings[lo:hi, d]
            core.l1.store(40, column)
            g.load_16(0, 40)
            g.cpy_imm_16(1, int(query[d]))
            g.mul_u16(2, 0, 1)
            g.add_u16(acc, acc, 2)

    @staticmethod
    def _block_reference(corpus: MiniCorpus, query: np.ndarray,
                         lo: int, hi: int) -> int:
        """Host column-checksum prediction of the block's VR sum.

        ``sum_i dot(e_i, q) mod 2**16 == dot(colsum(E), q) mod 2**16``:
        exact for the device's wrapping u16 multiply/add because
        reduction mod ``2**16`` is a ring homomorphism.
        """
        block = corpus.embeddings[lo:hi].astype(np.int64)
        q = np.asarray(query, dtype=np.int64) & 0xFFFF
        return int((block.sum(axis=0) * q).sum() % 65536)

    # ------------------------------------------------------------------
    # Verified top-k
    # ------------------------------------------------------------------
    def _verified_topk(self, device: APUDevice, score_vrs: List[int],
                       valid_counts: List[int], k: int) -> List[tuple]:
        core = device.core
        verified = [core.vr_read(vr) for vr in score_vrs]
        expected = self._host_topk(verified, valid_counts, k)
        budget = self.config.max_recomputes
        for attempt in range(budget + 1):
            result = apu_topk(device, score_vrs, k, valid_counts)
            core.charge_raw("integrity_verify",
                            self._costs.crc_cycles(4 * k), nbytes=4 * k)
            self.stats.n_checks += 1
            if result == expected:
                return result
            self.stats.n_detected += 1
            core.charge_raw("integrity_detect", 0.0)
            if attempt == budget:
                raise IntegrityError(
                    f"top-{k} extraction still wrong after {budget} "
                    f"recomputes (stuck-at fault?)")
            self.stats.n_recomputes += 1
            core.charge_raw("integrity_recompute", 0.0)
            # apu_topk masked padding and zeroed each winner in the score
            # VRs; restore them from the verified snapshots before retrying.
            for vr, snapshot in zip(score_vrs, verified):
                core.vr_write(vr, snapshot)
        raise AssertionError("unreachable")

    @staticmethod
    def _host_topk(verified: Sequence[np.ndarray],
                   valid_counts: Sequence[int],
                   k: int) -> List[Tuple[int, int]]:
        """Replicate ``apu_topk`` exactly on the verified host copies.

        Same padding mask (positions ``>= valid`` zeroed), same
        tie-breaks (lowest VR first, then first position), same
        winner-knockout loop -- so equality with the device result means
        the device extraction was uncorrupted.
        """
        arrays = [np.array(v, dtype=np.uint16, copy=True) for v in verified]
        bases: List[int] = []
        running = 0
        for arr, valid in zip(arrays, valid_counts):
            arr[valid:] = 0
            bases.append(running)
            running += valid
        maxima = [int(arr.max()) for arr in arrays]
        results: List[Tuple[int, int]] = []
        for _ in range(k):
            best = max(range(len(arrays)), key=lambda i: (maxima[i], -i))
            value = maxima[best]
            position = int(np.argmax(arrays[best] == value))
            results.append((bases[best] + position, value))
            arrays[best][position] = 0
            maxima[best] = int(arrays[best].max())
        return results
