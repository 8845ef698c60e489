"""Silent-data-corruption injection and ABFT defenses.

The compute-in-SRAM device computes *inside* the bit-slices that store
its data, so a single upset bit in a vector register or a DMA burst
error corrupts answers silently instead of crashing -- a failure mode
the node-level fault layer (stalls/outages) cannot express.  This
package provides both halves of the story:

* **Injection** (:mod:`repro.integrity.inject`): a
  :class:`MemoryFaultInjector` that corrupts real functional state --
  VR writes, DMA payloads, stuck-at cells -- driven by the seeded
  :class:`~repro.faults.plan.BitFlipFault` entries of a
  :class:`~repro.faults.FaultPlan`, so corruption replays
  deterministically.
* **Detection/recovery** (:mod:`repro.integrity.abft`,
  :mod:`repro.integrity.protected`): algorithm-based fault tolerance
  for the GVML kernels -- modular column checksums for the MAC
  reduction, parity tags on VR copies, CRC-checked DMA transfers, a
  periodic scrub pass -- and a :class:`ProtectedAPURetriever` whose
  top-k results are bit-identical to the fault-free baseline under any
  bounded number of transient flips.
* **Cost accounting** (:mod:`repro.integrity.config`): an
  :class:`IntegrityConfig` and cycle costs *calibrated by running the
  real checker ops* through the
  :class:`~repro.core.estimator.LatencyEstimator`, so protection
  overhead shows up honestly in Table 4/5-anchored timings.
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "abft": (
        "IntegrityError", "checked_l4_to_l1", "crc16", "host_checksum",
        "parity_tag", "protected_cpy_16", "scrub_pass", "vr_checksum",
        "vr_parity"),
    "config": ("IntegrityConfig", "IntegrityCostModel", "get_cost_model"),
    "inject": ("FlipRecord", "MemoryFaultInjector"),
    "protected": ("IntegrityStats", "ProtectedAPURetriever"),
})
