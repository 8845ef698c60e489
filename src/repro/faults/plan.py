"""Declarative fault plans for the sharded serving stack.

A :class:`FaultPlan` is a frozen, JSON-serializable description of
*when* and *where* the simulated deployment misbehaves.  Three fault
models cover the failure modes a compute-in-SRAM serving rack actually
exhibits:

* :class:`StallFault` -- a transient device stall: every batch
  dispatched on the shard inside the window takes ``slowdown`` times
  its normal service time (DRAM-refresh storms and DMA retry loops,
  the Section 2 pathologies, seen from the host).
* :class:`OutageFault` -- the shard's device goes dark at ``start_s``.
  A finite ``duration_s`` models a crash-and-restart; an infinite one
  a hard failure.  After a finite outage the device may *slow-start*:
  for ``recovery_s`` seconds service times carry a multiplier that
  decays linearly from ``recovery_slowdown`` back to one (cold L1/L2,
  re-warming the embedding stream).
* :class:`BitFlipFault` -- a silent-data-corruption event: a single-bit
  upset in a vector-register bit-slice, a burst error in a DMA
  transfer, or a stuck-at cell in one bank.  These never crash the
  device; they corrupt data in place and are only observable through
  the :mod:`repro.integrity` detectors.

Plans are pure data: the same plan and request seed always replay to
bit-identical schedules.  :meth:`FaultPlan.random` derives a scripted
chaos plan deterministically from a seed, so randomized chaos runs are
exactly reproducible too.

Plans are also *consistent by construction*: outage windows on one
shard whose semantics contradict each other (a restart scripted after a
permanent failure, or a slow-start recovery ramp scheduled while the
device is scripted dark by another outage) are rejected at plan
construction rather than silently merged into an ambiguous union.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "StallFault",
    "OutageFault",
    "BitFlipFault",
    "BIT_FLIP_TARGETS",
    "FaultPlan",
    "FaultLogEntry",
]

#: Where a :class:`BitFlipFault` strikes.  ``"vr"`` upsets one bit of
#: one element in a vector register, ``"dma"`` flips a short burst of
#: bits in the payload of an in-flight DMA transfer, and ``"stuck"``
#: wedges one SRAM cell so every subsequent write to it re-corrupts.
BIT_FLIP_TARGETS = ("vr", "dma", "stuck")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _check_shard_id(shard_id: object) -> None:
    _require(
        isinstance(shard_id, (int, np.integer))
        and not isinstance(shard_id, bool) and shard_id >= 0,
        f"shard_id must be an integer >= 0, got {shard_id!r}")


@dataclass(frozen=True)
class StallFault:
    """Transient slowdown window on one shard's device."""

    shard_id: int
    start_s: float
    duration_s: float
    #: Service-time multiplier while the window is open (>= 1).
    slowdown: float

    def __post_init__(self) -> None:
        _check_shard_id(self.shard_id)
        _require(math.isfinite(self.start_s) and self.start_s >= 0,
                 f"start_s must be >= 0 and finite, got {self.start_s!r}")
        _require(math.isfinite(self.duration_s) and self.duration_s > 0,
                 f"duration_s must be positive and finite, "
                 f"got {self.duration_s!r}")
        _require(math.isfinite(self.slowdown) and self.slowdown >= 1.0,
                 f"slowdown must be >= 1, got {self.slowdown!r}")

    @property
    def end_s(self) -> float:
        """First instant the stall no longer applies."""
        return self.start_s + self.duration_s


@dataclass(frozen=True)
class OutageFault:
    """The shard's device is unreachable in ``[start_s, end_s)``."""

    shard_id: int
    start_s: float
    #: ``inf`` (the default) is a hard failure with no restart.
    duration_s: float = math.inf
    #: Slow-start window after a finite outage ends.
    recovery_s: float = 0.0
    #: Initial service-time multiplier at the moment of recovery; decays
    #: linearly back to one over ``recovery_s``.
    recovery_slowdown: float = 1.0

    def __post_init__(self) -> None:
        _check_shard_id(self.shard_id)
        _require(math.isfinite(self.start_s) and self.start_s >= 0,
                 f"start_s must be >= 0 and finite, got {self.start_s!r}")
        _require(self.duration_s > 0,
                 f"duration_s must be positive, got {self.duration_s!r}")
        _require(math.isfinite(self.recovery_s) and self.recovery_s >= 0,
                 f"recovery_s must be >= 0 and finite, "
                 f"got {self.recovery_s!r}")
        _require(
            math.isfinite(self.recovery_slowdown)
            and self.recovery_slowdown >= 1.0,
            f"recovery_slowdown must be >= 1, "
            f"got {self.recovery_slowdown!r}")
        if self.permanent:
            _require(self.recovery_s == 0.0,
                     "a permanent outage cannot have a recovery window")

    @property
    def permanent(self) -> bool:
        """Hard failure: the device never comes back."""
        return math.isinf(self.duration_s)

    @property
    def end_s(self) -> float:
        """First instant the device is reachable again (``inf`` if never)."""
        return self.start_s + self.duration_s

    @property
    def recovery_end_s(self) -> float:
        """First instant the slow-start ramp no longer applies."""
        return self.end_s + self.recovery_s


@dataclass(frozen=True)
class BitFlipFault:
    """A silent single-event upset on one shard's device at ``t_s``.

    ``target`` selects the corruption site:

    * ``"vr"``: bit ``bit`` of element ``element`` of vector register
      ``vr`` flips on the first VR write at or after ``t_s``.
    * ``"dma"``: a burst of ``burst_bits`` adjacent bits (starting at
      ``bit`` of element ``element``) flips in the payload of the
      first DMA transfer at or after ``t_s``.
    * ``"stuck"``: the SRAM cell holding bit ``bit`` of element
      ``element`` of register ``vr`` sticks from ``t_s`` onward: every
      later write through it re-corrupts the stored value.
    """

    shard_id: int
    t_s: float
    target: str = "vr"
    vr: int = 4
    bit: int = 0
    element: int = 0
    burst_bits: int = 1

    def __post_init__(self) -> None:
        _check_shard_id(self.shard_id)
        _require(math.isfinite(self.t_s) and self.t_s >= 0,
                 f"t_s must be >= 0 and finite, got {self.t_s!r}")
        _require(self.target in BIT_FLIP_TARGETS,
                 f"target must be one of {BIT_FLIP_TARGETS}, "
                 f"got {self.target!r}")
        _require(isinstance(self.vr, (int, np.integer))
                 and not isinstance(self.vr, bool) and 0 <= self.vr < 24,
                 f"vr must be an integer in 0..23, got {self.vr!r}")
        _require(isinstance(self.bit, (int, np.integer))
                 and not isinstance(self.bit, bool) and 0 <= self.bit < 16,
                 f"bit must be an integer in 0..15, got {self.bit!r}")
        _require(isinstance(self.element, (int, np.integer))
                 and not isinstance(self.element, bool) and self.element >= 0,
                 f"element must be an integer >= 0, got {self.element!r}")
        _require(isinstance(self.burst_bits, (int, np.integer))
                 and not isinstance(self.burst_bits, bool)
                 and 1 <= self.burst_bits <= 16,
                 f"burst_bits must be an integer in 1..16, "
                 f"got {self.burst_bits!r}")

    @property
    def persistent(self) -> bool:
        """Stuck-at faults corrupt every write from ``t_s`` onward."""
        return self.target == "stuck"


@dataclass(frozen=True)
class FaultLogEntry:
    """One dynamic fault-handling action taken during a run.

    ``kind`` is one of ``"timeout"`` (a batch hit the per-batch
    timeout), ``"interrupted"`` (an outage began under an in-flight
    batch), ``"backoff"`` (the shard is gated for ``duration_s`` before
    the next retry), ``"dead"`` (retries exhausted or hard failure:
    the shard was declared dead and failed over), ``"corrupted"`` (an
    integrity check caught a wrong answer and scheduled a recompute),
    or ``"sdc"`` (a corruption escaped undetected into served results
    -- only possible with integrity checking disabled).
    """

    kind: str
    shard_id: int
    t_s: float
    duration_s: float = 0.0
    attempt: int = 0


def _overlap(a0: float, a1: float, b0: float, b1: float) -> bool:
    """Whether half-open intervals ``[a0, a1)`` and ``[b0, b1)`` meet."""
    return a0 < b1 and b0 < a1


def _describe(outage: OutageFault) -> str:
    if outage.permanent:
        return f"permanent outage at {outage.start_s:g}s"
    return f"outage [{outage.start_s:g}s, {outage.end_s:g}s)"


def check_outage_consistency(outages: Sequence[OutageFault]) -> None:
    """Reject same-shard outage windows with contradictory semantics.

    Two combinations are contradictions, not unions:

    * a *transient* outage overlapping a *permanent* one -- the
      transient schedules a restart inside a window another fault says
      is dark forever;
    * a slow-start *recovery ramp* overlapping any other outage window
      -- a recovery multiplier describes a device that is up and
      re-warming, which cannot hold while another outage scripts it
      unreachable.

    Transient-transient overlaps remain legal (their union is well
    defined), as do overlapping permanent failures (dark from the
    earliest start) and stalls overlapping anything (a stall is simply
    inert while its device is dark).
    """
    by_shard: Dict[int, List[OutageFault]] = {}
    for outage in outages:
        by_shard.setdefault(outage.shard_id, []).append(outage)
    for shard_id, group in by_shard.items():
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                for perm, other in ((a, b), (b, a)):
                    if (perm.permanent and not other.permanent
                            and other.end_s > perm.start_s):
                        raise ValueError(
                            f"contradictory fault plan for shard "
                            f"{shard_id}: {_describe(other)} schedules a "
                            f"restart after the shard's "
                            f"{_describe(perm)}")
            if a.recovery_s > 0:
                for b in group:
                    if b is a:
                        continue
                    if _overlap(a.end_s, a.recovery_end_s,
                                b.start_s, b.end_s):
                        raise ValueError(
                            f"contradictory fault plan for shard "
                            f"{shard_id}: recovery window "
                            f"[{a.end_s:g}s, {a.recovery_end_s:g}s) "
                            f"overlaps {_describe(b)}")


def _integer(raw: object) -> int:
    """An integer field from JSON (a ``bool`` or a float is not one)."""
    if isinstance(raw, bool) or not isinstance(raw, (int, np.integer)):
        raise TypeError(raw)
    return int(raw)


def _number(raw: object) -> float:
    """A number field from JSON (a ``bool`` or a string is not one)."""
    if isinstance(raw, bool) \
            or not isinstance(raw, (int, float, np.integer)):
        raise TypeError(raw)
    return float(raw)


def _string(raw: object) -> str:
    if not isinstance(raw, str):
        raise TypeError(raw)
    return raw


def _duration(raw: object) -> float:
    """An outage duration from JSON: ``null`` is a permanent outage."""
    return math.inf if raw is None else _number(raw)


#: What each JSON field converter accepts, for error messages.
_EXPECTED = {_integer: "an integer", _number: "a number",
             _string: "a string", _duration: "a number or null"}


def _parse_faults(data: Dict[str, object], key: str, fault_cls: type,
                  convert: Dict[str, Callable[[object], object]]) -> tuple:
    """The ``fault_cls`` entries listed under ``key`` (fields not in
    ``convert`` are numbers; absent ones take the dataclass default, and
    a field ``fault_cls`` does not have is an error).

    Every error is a :class:`ValueError` naming the entry and field.
    """
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise ValueError(f"fault plan {key!r} must be a list of objects, "
                         f"got {type(entries).__name__}")
    faults = []
    for index, entry in enumerate(entries):
        where = f"{key}[{index}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be an object, "
                             f"got {type(entry).__name__}")
        specs = fields(fault_cls)
        known = {spec.name for spec in specs}
        for name in entry:
            if name not in known:
                raise ValueError(f"{where}: unknown field {name!r}")
        kwargs = {}
        for spec in specs:
            if spec.name not in entry:
                if spec.default is MISSING:
                    raise ValueError(f"{where}: missing field {spec.name!r}")
                continue
            raw = entry[spec.name]
            parse = convert.get(spec.name, _number)
            try:
                kwargs[spec.name] = parse(raw)
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"{where}: field {spec.name!r} must be "
                                 f"{_EXPECTED[parse]}, got {raw!r}") from None
        try:
            faults.append(fault_cls(**kwargs))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return tuple(faults)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic script of faults for one simulation run."""

    stalls: Tuple[StallFault, ...] = ()
    outages: Tuple[OutageFault, ...] = ()
    bit_flips: Tuple[BitFlipFault, ...] = ()

    def __post_init__(self) -> None:
        # Accept any iterable but store hashable tuples.
        object.__setattr__(self, "stalls", tuple(self.stalls))
        object.__setattr__(self, "outages", tuple(self.outages))
        object.__setattr__(self, "bit_flips", tuple(self.bit_flips))
        check_outage_consistency(self.outages)
        # One physical SRAM cell can only stick once: a duplicate
        # stuck-at draw silently collapses to a single cell (the OR
        # mask is idempotent), which would make a plan that *looks*
        # like a multi-cell uncorrectable behave as a correctable
        # single-cell fault under ECC.  Reject it up front.
        seen_cells = set()
        for fault in self.bit_flips:
            if not fault.persistent:
                continue
            cell = (fault.shard_id, fault.vr, fault.element, fault.bit)
            if cell in seen_cells:
                raise ValueError(
                    f"duplicate stuck-at cell in fault plan: shard "
                    f"{fault.shard_id} vr {fault.vr} element "
                    f"{fault.element} bit {fault.bit} is wedged twice")
            seen_cells.add(cell)

    def __bool__(self) -> bool:
        return bool(self.stalls or self.outages or self.bit_flips)

    @property
    def n_faults(self) -> int:
        """Total scripted faults across all models."""
        return len(self.stalls) + len(self.outages) + len(self.bit_flips)

    def shard_ids(self) -> Tuple[int, ...]:
        """Sorted distinct shard ids the plan touches."""
        return tuple(sorted({f.shard_id for f in self.stalls}
                            | {f.shard_id for f in self.outages}
                            | {f.shard_id for f in self.bit_flips}))

    def validate_for(self, n_shards: int) -> None:
        """Reject plans that reference shards outside ``0..n_shards-1``."""
        bad = [shard_id for shard_id in self.shard_ids()
               if shard_id >= n_shards]
        if bad:
            raise ValueError(
                f"fault plan references shard ids {bad} but the "
                f"deployment has only {n_shards} shard(s)")

    def for_shard(self, shard_id: int) -> "FaultPlan":
        """The sub-plan touching one shard."""
        return FaultPlan(
            stalls=tuple(f for f in self.stalls if f.shard_id == shard_id),
            outages=tuple(f for f in self.outages if f.shard_id == shard_id),
            bit_flips=tuple(f for f in self.bit_flips
                            if f.shard_id == shard_id),
        )

    def merged_with(self, other: "FaultPlan") -> "FaultPlan":
        """Union of two plans (e.g. ``--fault-plan`` + ``--bit-flip-plan``).

        Construction re-runs the consistency check, so merging two
        individually valid plans whose outage windows contradict each
        other raises.
        """
        return FaultPlan(stalls=self.stalls + other.stalls,
                         outages=self.outages + other.outages,
                         bit_flips=self.bit_flips + other.bit_flips)

    # ------------------------------------------------------------------
    # Serialization (``repro serve --fault-plan plan.json``)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, List[Dict[str, object]]]:
        """Plain-data form (JSON-ready; infinite durations become null)."""
        stalls = [
            {"shard_id": f.shard_id, "start_s": f.start_s,
             "duration_s": f.duration_s, "slowdown": f.slowdown}
            for f in self.stalls
        ]
        outages = [
            {"shard_id": f.shard_id, "start_s": f.start_s,
             "duration_s": None if f.permanent else f.duration_s,
             "recovery_s": f.recovery_s,
             "recovery_slowdown": f.recovery_slowdown}
            for f in self.outages
        ]
        bit_flips = [
            {"shard_id": f.shard_id, "t_s": f.t_s, "target": f.target,
             "vr": f.vr, "bit": f.bit, "element": f.element,
             "burst_bits": f.burst_bits}
            for f in self.bit_flips
        ]
        data: Dict[str, List[Dict[str, object]]] = {
            "stalls": stalls, "outages": outages}
        if bit_flips:
            data["bit_flips"] = bit_flips
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        """Inverse of :meth:`to_dict` (null duration = permanent).

        A malformed plan raises :class:`ValueError` naming the entry and
        the field, e.g. ``outages[0]: missing field 'start_s'`` or
        ``outages[0]: unknown field 'recovery_slowdwn'``.  Fields
        are not coerced: integer fields take integers, number fields
        integers or floats (never a ``bool`` or a string), and
        ``target`` a string, so ``"shard_id": 1.7`` is an error, not
        shard 1.
        """
        if not isinstance(data, dict):
            raise ValueError(f"fault plan must be a JSON object, "
                             f"got {type(data).__name__}")
        unknown = set(data) - {"stalls", "outages", "bit_flips"}
        if unknown:
            raise ValueError(f"unknown fault plan keys: {sorted(unknown)}")

        return cls(
            stalls=_parse_faults(data, "stalls", StallFault,
                                 {"shard_id": _integer}),
            outages=_parse_faults(data, "outages", OutageFault,
                                  {"shard_id": _integer,
                                   "duration_s": _duration}),
            bit_flips=_parse_faults(data, "bit_flips", BitFlipFault,
                                    {"shard_id": _integer,
                                     "target": _string, "vr": _integer,
                                     "bit": _integer, "element": _integer,
                                     "burst_bits": _integer}),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The plan as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a JSON fault plan."""
        return cls.from_dict(json.loads(text))

    def save(self, path: object) -> str:
        """Write the JSON plan to ``path``; returns the path."""
        with open(path, "w") as handle:  # type: ignore[arg-type]
            handle.write(self.to_json() + "\n")
        return str(path)

    @classmethod
    def load(cls, path: object) -> "FaultPlan":
        """Read a JSON plan from ``path``."""
        with open(path) as handle:  # type: ignore[arg-type]
            return cls.from_json(handle.read())

    # ------------------------------------------------------------------
    # Seeded chaos generation
    # ------------------------------------------------------------------
    @classmethod
    def random(cls, seed: int, n_shards: int, horizon_s: float,
               stall_rate: float = 1.0, outage_rate: float = 0.5,
               permanent_fraction: float = 0.25,
               max_slowdown: float = 8.0) -> "FaultPlan":
        """A deterministic chaos plan drawn from a seeded generator.

        ``stall_rate`` / ``outage_rate`` are expected fault counts per
        shard over the horizon; ``permanent_fraction`` of outages are
        hard failures.  The same arguments always produce the same
        plan, so chaos runs replay bit-identically.  Outages whose
        windows would contradict an earlier draw on the same shard
        (see :func:`check_outage_consistency`) are dropped in draw
        order, which keeps the generator deterministic while the plan
        stays consistent by construction.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards!r}")
        if not (math.isfinite(horizon_s) and horizon_s > 0):
            raise ValueError(f"horizon_s must be positive and finite, "
                             f"got {horizon_s!r}")
        rng = np.random.default_rng(seed)
        stalls: List[StallFault] = []
        outages: List[OutageFault] = []
        for shard_id in range(n_shards):
            for _ in range(rng.poisson(stall_rate)):
                start = float(rng.uniform(0.0, horizon_s))
                stalls.append(StallFault(
                    shard_id=shard_id, start_s=start,
                    duration_s=float(rng.uniform(0.05, 0.3) * horizon_s),
                    slowdown=float(rng.uniform(1.5, max_slowdown))))
            for _ in range(rng.poisson(outage_rate)):
                start = float(rng.uniform(0.0, horizon_s))
                if rng.uniform() < permanent_fraction:
                    candidate = OutageFault(shard_id=shard_id,
                                            start_s=start)
                else:
                    candidate = OutageFault(
                        shard_id=shard_id, start_s=start,
                        duration_s=float(rng.uniform(0.05, 0.2) * horizon_s),
                        recovery_s=float(rng.uniform(0.0, 0.1) * horizon_s),
                        recovery_slowdown=float(rng.uniform(1.0, 4.0)))
                try:
                    check_outage_consistency(outages + [candidate])
                except ValueError:
                    continue
                outages.append(candidate)
        return cls(stalls=tuple(stalls), outages=tuple(outages))

    @classmethod
    def random_bit_flips(cls, seed: int, n_shards: int, horizon_s: float,
                         flip_rate: float = 2.0,
                         dma_fraction: float = 0.25,
                         stuck_fraction: float = 0.1,
                         n_vrs: int = 24,
                         n_elements: int = 32768) -> "FaultPlan":
        """A deterministic plan of silent bit upsets.

        ``flip_rate`` is the expected number of upsets per shard over
        the horizon; ``dma_fraction`` / ``stuck_fraction`` apportion
        them to DMA bursts and stuck-at cells, the rest being single
        VR-bit flips.  Combine with :meth:`random` output through
        :meth:`merged_with`.  A stuck-at draw that lands on an
        already-wedged cell is dropped in draw order (the same idiom
        :meth:`random` uses for contradictory outages), keeping the
        generator deterministic while the plan stays valid under the
        duplicate-cell check.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards!r}")
        if not (math.isfinite(horizon_s) and horizon_s > 0):
            raise ValueError(f"horizon_s must be positive and finite, "
                             f"got {horizon_s!r}")
        if not 0.0 <= dma_fraction + stuck_fraction <= 1.0:
            raise ValueError("dma_fraction + stuck_fraction must be in "
                             f"[0, 1], got {dma_fraction + stuck_fraction!r}")
        rng = np.random.default_rng(seed)
        flips: List[BitFlipFault] = []
        wedged = set()
        for shard_id in range(n_shards):
            for _ in range(rng.poisson(flip_rate)):
                t_s = float(rng.uniform(0.0, horizon_s))
                draw = float(rng.uniform())
                if draw < stuck_fraction:
                    target = "stuck"
                elif draw < stuck_fraction + dma_fraction:
                    target = "dma"
                else:
                    target = "vr"
                vr = int(rng.integers(0, n_vrs))
                bit = int(rng.integers(0, 16))
                element = int(rng.integers(0, n_elements))
                burst_bits = int(rng.integers(1, 5)) \
                    if target == "dma" else 1
                if target == "stuck":
                    cell = (shard_id, vr, element, bit)
                    if cell in wedged:
                        continue
                    wedged.add(cell)
                flips.append(BitFlipFault(
                    shard_id=shard_id, t_s=t_s, target=target,
                    vr=vr, bit=bit, element=element,
                    burst_bits=burst_bits))
        return cls(bit_flips=tuple(flips))
