"""Declarative ECC configuration and the charged decode-cost model.

:class:`ECCConfig` is the serving-facing knob: a protection tier
(``secded`` or ``bch``), the codeword data width over the 16-bit VR
word layout, and the BCH correction strength.  Validation is strict
and typed (:mod:`repro.ecc.errors`) so a bad ``--ecc-tier`` exits the
CLI cleanly instead of exploding mid-simulation.

:class:`ECCCostModel` converts a codec's structure into the two costs
the latency model charges:

* **Storage** — ``n/k`` check-bit inflation of every protected byte.
  The serving model applies it to the shard corpus footprint, so the
  HBM warm-up stream, the per-batch DMA, and effective capacity all
  pay the tax.
* **Decode cycles** — a bytes-per-cycle decode throughput at the
  device clock.  SEC-DED is a parallel syndrome XOR tree (wide, one
  pass); BCH pays syndrome + Berlekamp–Massey + Chien, which scales
  with ``t``, hence the ``1/t`` throughput derating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from .errors import (
    ECCConfigError,
    ECCGeometryError,
    ECCStrengthError,
    ECCTierError,
)

if TYPE_CHECKING:
    from .codecs import BCHCodec, SECDEDCodec

__all__ = ["ECC_TIERS", "ECCConfig", "ECCCostModel", "make_codec"]

#: Valid protection tiers, weakest to strongest.
ECC_TIERS = ("secded", "bch")

#: Decode throughput in bytes per device cycle.  SEC-DED's syndrome is
#: a single XOR reduction over the codeword; BCH's iterative decode
#: costs roughly ``t`` passes over the same data.
_SECDED_BYTES_PER_CYCLE = 8.0
_BCH_BYTES_PER_CYCLE_AT_T1 = 8.0


@dataclass(frozen=True)
class ECCConfig:
    """Code-based memory-protection configuration.

    ``data_bits`` is the codeword payload width; it must pack a whole
    number of 16-bit VR words (the simulated memories are u16-element
    vector registers, so a codeword covers ``data_bits // 16``
    consecutive elements).  ``t`` is the BCH correction strength and
    is ignored by the SEC-DED tier (which always corrects 1 bit and
    detects 2).
    """

    enabled: bool = False
    tier: str = "secded"
    data_bits: int = 64
    t: int = 2

    def __post_init__(self) -> None:
        if not isinstance(self.enabled, bool):
            raise ECCConfigError("enabled must be a bool")
        if self.tier not in ECC_TIERS:
            raise ECCTierError(
                f"unknown ECC tier {self.tier!r}; expected one of "
                f"{', '.join(ECC_TIERS)}")
        if not isinstance(self.data_bits, int) \
                or isinstance(self.data_bits, bool):
            raise ECCGeometryError("data_bits must be an int")
        if self.data_bits < 16 or self.data_bits % 16:
            raise ECCGeometryError(
                f"data_bits must be a positive multiple of the 16-bit "
                f"VR word, got {self.data_bits}")
        if self.data_bits > 512:
            raise ECCGeometryError(
                f"data_bits {self.data_bits} exceeds the 512-bit "
                f"codeword ceiling of the VR layout")
        if not isinstance(self.t, int) or isinstance(self.t, bool):
            raise ECCStrengthError("t must be an int")
        if self.t < 1:
            raise ECCStrengthError(f"t must be >= 1, got {self.t}")
        if self.enabled:
            make_codec(self)  # geometry must be realisable up front

    @property
    def words_per_codeword(self) -> int:
        """16-bit VR words covered by one codeword."""
        return self.data_bits // 16


def make_codec(config: ECCConfig) -> Union[SECDEDCodec, BCHCodec]:
    """Build the codec an :class:`ECCConfig` describes."""
    # Only an enabled config builds a codec, so only it loads them.
    from .codecs import BCHCodec, SECDEDCodec

    if config.tier == "secded":
        return SECDEDCodec(config.data_bits)
    if config.tier == "bch":
        return BCHCodec(config.data_bits, config.t)
    raise ECCTierError(f"unknown ECC tier {config.tier!r}")


class ECCCostModel:
    """Storage and decode-cycle costs of one codec at the device clock."""

    def __init__(self, codec: Union[SECDEDCodec, BCHCodec],
                 clock_hz: float) -> None:
        if clock_hz <= 0:
            raise ECCGeometryError(f"clock_hz must be > 0, got {clock_hz}")
        self.codec = codec
        self.clock_hz = clock_hz
        if codec.tier == "secded":
            self.bytes_per_cycle = _SECDED_BYTES_PER_CYCLE
        else:
            self.bytes_per_cycle = _BCH_BYTES_PER_CYCLE_AT_T1 / codec.t

    @property
    def storage_factor(self) -> float:
        """Raw-bytes inflation of every protected byte (``n/k``)."""
        return self.codec.storage_overhead

    def decode_seconds(self, nbytes: float) -> float:
        """Seconds to syndrome-check ``nbytes`` of protected data."""
        if nbytes < 0:
            raise ECCGeometryError(f"nbytes must be >= 0, got {nbytes}")
        return nbytes / self.bytes_per_cycle / self.clock_hz

    def encode_seconds(self, nbytes: float) -> float:
        """Encode runs the same generator arithmetic as the syndrome
        pass, so it is charged at the same throughput."""
        return self.decode_seconds(nbytes)
