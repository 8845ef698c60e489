"""Code-based memory protection for the simulated memories.

Bit-accurate SEC-DED Hamming and binary BCH codecs
(:mod:`repro.ecc.codecs`), a declarative :class:`ECCConfig` with typed
validation errors, the charged storage/decode cost model, and the
serving-layer :class:`ECCModel` judge that classifies injected faults
into corrected / detected-uncorrectable / silently-miscorrected
outcomes.  See the README "Memory protection (ECC)" section.
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "codecs": (
        "BCHCodec", "SECDEDCodec", "STATUS_CLEAN", "STATUS_CORRECTED",
        "STATUS_DETECTED", "VERDICT_CORRECTED", "VERDICT_DETECTED",
        "VERDICT_MISCORRECT"),
    "config": ("ECC_TIERS", "ECCConfig", "ECCCostModel", "make_codec"),
    "errors": (
        "ECCConfigError", "ECCGeometryError", "ECCStrengthError",
        "ECCTierError"),
    "model": ("ECCModel",),
})
