"""Autoscaling, admission, and priority policy for the elastic pool.

Three policy pieces, each a frozen dataclass with typed validation
errors (the same idiom as :mod:`repro.serve.metrics`), plus a
:class:`ScalePolicy` bundle with JSON round-tripping so one policy file
(``examples/autoscale_policy.json``) drives the CLI:

* :class:`AutoscalePolicy` -- pool bounds, the burn-rate thresholds the
  controller acts on, the control cadence, and the cooldown;
* :class:`AdmissionPolicy` -- the queue-pressure threshold (measured in
  *batches per attached shard*) past which arrivals are shed;
* :class:`PriorityClass` -- a named traffic class with an arrival share
  and a protection weight: a class with weight ``w`` is shed only once
  queue pressure exceeds ``w`` times the base shed threshold, so under
  overload low-weight (batch/background) traffic sheds first and
  high-weight (interactive) traffic keeps flowing.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, Dict, Mapping, Tuple, Type, TypeVar

__all__ = [
    "ScalePolicyError",
    "PoolBoundsError",
    "PriorityMapError",
    "AdmissionPolicyError",
    "ElasticPoolError",
    "AutoscalePolicy",
    "AdmissionPolicy",
    "PriorityClass",
    "ScalePolicy",
    "DEFAULT_PRIORITY_CLASSES",
    "parse_priority_map",
]


class ScalePolicyError(ValueError):
    """A scale-policy parameter is out of its domain."""


class PoolBoundsError(ScalePolicyError):
    """Pool size bounds are inverted or out of range."""


class PriorityMapError(ScalePolicyError):
    """The priority-class map is empty or malformed."""


class AdmissionPolicyError(ScalePolicyError):
    """An admission-control parameter is out of its domain."""


class ElasticPoolError(ScalePolicyError):
    """An elastic-pool topology or sizing request is invalid."""


@dataclass(frozen=True)
class AutoscalePolicy:
    """Burn-rate-driven attach/detach rules for the elastic pool."""

    min_shards: int = 2
    max_shards: int = 8
    #: Controller tick cadence (also the trailing burn window width).
    control_interval_s: float = 0.010
    #: SLO attainment target the error budget derives from
    #: (budget = 1 - target).
    slo_target: float = 0.9
    #: Attach a shard when the trailing burn rate reaches this.
    scale_up_burn: float = 1.0
    #: Detach a shard when the trailing burn rate falls to this.
    scale_down_burn: float = 0.25
    #: Shards attached per scale-up decision.
    scale_up_step: int = 2
    #: Minimum time between scaling decisions.
    cooldown_s: float = 0.020

    def __post_init__(self) -> None:
        if not isinstance(self.min_shards, int) \
                or isinstance(self.min_shards, bool) or self.min_shards < 1:
            raise PoolBoundsError(
                f"min_shards must be an integer >= 1, "
                f"got {self.min_shards!r}")
        if not isinstance(self.max_shards, int) \
                or isinstance(self.max_shards, bool):
            raise PoolBoundsError(
                f"max_shards must be an integer, got {self.max_shards!r}")
        if self.min_shards > self.max_shards:
            raise PoolBoundsError(
                f"min_shards ({self.min_shards}) must not exceed "
                f"max_shards ({self.max_shards})")
        if not math.isfinite(self.control_interval_s) \
                or self.control_interval_s <= 0:
            raise ScalePolicyError(
                f"control_interval_s must be positive, "
                f"got {self.control_interval_s!r}")
        if not 0.0 < self.slo_target < 1.0:
            raise ScalePolicyError(
                f"slo_target must be in (0, 1), got {self.slo_target!r}")
        if not math.isfinite(self.scale_up_burn) or self.scale_up_burn <= 0:
            raise ScalePolicyError(
                f"scale_up_burn must be positive, "
                f"got {self.scale_up_burn!r}")
        if not math.isfinite(self.scale_down_burn) \
                or self.scale_down_burn < 0 \
                or self.scale_down_burn >= self.scale_up_burn:
            raise ScalePolicyError(
                f"scale_down_burn must be in [0, scale_up_burn), "
                f"got {self.scale_down_burn!r}")
        if not isinstance(self.scale_up_step, int) \
                or isinstance(self.scale_up_step, bool) \
                or self.scale_up_step < 1:
            raise ScalePolicyError(
                f"scale_up_step must be an integer >= 1, "
                f"got {self.scale_up_step!r}")
        if not math.isfinite(self.cooldown_s) or self.cooldown_s < 0:
            raise ScalePolicyError(
                f"cooldown_s must be >= 0, got {self.cooldown_s!r}")

    @property
    def error_budget(self) -> float:
        """The SLO error budget the burn rate is measured against."""
        return 1.0 - self.slo_target


@dataclass(frozen=True)
class AdmissionPolicy:
    """Load-shedding threshold, in mean batches queued per shard.

    An arrival is shed when the pool's total queued sub-queries exceed
    ``shed_queue_batches * max_batch`` per serving shard, scaled by the
    arrival's priority weight.  The threshold is deliberately a *depth*
    (not a rate): depth is what actually predicts queueing delay.
    """

    shed_queue_batches: float = 4.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.shed_queue_batches) \
                or self.shed_queue_batches <= 0:
            raise AdmissionPolicyError(
                f"shed_queue_batches must be positive, "
                f"got {self.shed_queue_batches!r}")


@dataclass(frozen=True)
class PriorityClass:
    """One named traffic class: arrival share + protection weight."""

    name: str
    share: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise PriorityMapError("priority class name must be non-empty")
        if not math.isfinite(self.share) or self.share <= 0:
            raise PriorityMapError(
                f"priority class {self.name!r}: share must be positive, "
                f"got {self.share!r}")
        if not math.isfinite(self.weight) or self.weight <= 0:
            raise PriorityMapError(
                f"priority class {self.name!r}: weight must be positive, "
                f"got {self.weight!r}")


#: The default two-class split: mostly interactive traffic that sheds
#: late, plus a background class that sheds at a quarter of the
#: interactive threshold.
DEFAULT_PRIORITY_CLASSES: Tuple[PriorityClass, ...] = (
    PriorityClass(name="interactive", share=0.8, weight=1.0),
    PriorityClass(name="batch", share=0.2, weight=0.25),
)


def _validate_classes(classes: Tuple[PriorityClass, ...]) -> None:
    if not classes:
        raise PriorityMapError(
            "priority map must define at least one class")
    names = [cls.name for cls in classes]
    if len(set(names)) != len(names):
        raise PriorityMapError(
            f"duplicate priority class names: {names!r}")


def parse_priority_map(text: str) -> Tuple[PriorityClass, ...]:
    """Parse the CLI's ``name=share[:weight],...`` priority-map syntax.

    ``"interactive=0.8,batch=0.2:0.25"`` means 80% interactive traffic
    at the full shed threshold and 20% batch traffic shed at a quarter
    of it.  An empty string is rejected with :class:`PriorityMapError`.
    """
    entries = [entry.strip() for entry in text.split(",") if entry.strip()]
    if not entries:
        raise PriorityMapError(
            f"priority map must define at least one class, got {text!r}")
    classes = []
    for entry in entries:
        if "=" not in entry:
            raise PriorityMapError(
                f"priority map entry {entry!r} is not name=share[:weight]")
        name, _, rest = entry.partition("=")
        share_text, _, weight_text = rest.partition(":")
        try:
            share = float(share_text)
            weight = float(weight_text) if weight_text else 1.0
        except ValueError:
            raise PriorityMapError(
                f"priority map entry {entry!r} has a non-numeric "
                f"share/weight") from None
        classes.append(PriorityClass(name=name.strip(), share=share,
                                     weight=weight))
    result = tuple(classes)
    _validate_classes(result)
    return result


_Policy = TypeVar("_Policy")
#: JSON value kinds a policy field of each annotated type accepts
#: (``bool`` is excluded separately: JSON ``true`` is not a number).
_FIELD_KINDS = {"float": ((int, float), "a number"),
                "str": ((str,), "a string")}


def _kind(value: Any) -> str:
    return "null" if value is None else type(value).__name__


def _policy_object(raw: Any, where: str, policy_cls: Callable[..., _Policy],
                   error: Type[ScalePolicyError]) -> _Policy:
    """``policy_cls`` built from the JSON object ``raw``.

    Every shape error is an ``error`` naming ``where`` and the field,
    e.g. ``autoscale: unknown field 'bogus'``; value checks are the
    dataclass's own.
    """
    if not isinstance(raw, Mapping):
        raise error(f"{where} must be an object, got {_kind(raw)}")
    specs = {spec.name: spec for spec in fields(policy_cls)}  # type: ignore[arg-type]
    for name, value in raw.items():
        if name not in specs:
            raise error(f"{where}: unknown field {name!r}")
        kinds = _FIELD_KINDS.get(str(specs[name].type))
        if kinds and (isinstance(value, bool)
                      or not isinstance(value, kinds[0])):
            raise error(f"{where}: field {name!r} must be {kinds[1]}, "
                        f"got {value!r}")
    for name, spec in specs.items():
        if name not in raw and spec.default is MISSING \
                and spec.default_factory is MISSING:
            raise error(f"{where}: missing field {name!r}")
    return policy_cls(**raw)


@dataclass(frozen=True)
class ScalePolicy:
    """The full elastic-serving policy bundle (JSON round-trippable)."""

    autoscale: AutoscalePolicy = field(default_factory=AutoscalePolicy)
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    priorities: Tuple[PriorityClass, ...] = DEFAULT_PRIORITY_CLASSES

    def __post_init__(self) -> None:
        if not isinstance(self.autoscale, AutoscalePolicy):
            raise ScalePolicyError(
                f"autoscale must be an AutoscalePolicy, "
                f"got {type(self.autoscale).__name__}")
        if not isinstance(self.admission, AdmissionPolicy):
            raise AdmissionPolicyError(
                f"admission must be an AdmissionPolicy, "
                f"got {type(self.admission).__name__}")
        classes = tuple(self.priorities)
        _validate_classes(classes)
        object.__setattr__(self, "priorities", classes)

    @property
    def shares(self) -> Tuple[float, ...]:
        """Normalized arrival shares, in class order."""
        total = sum(cls.share for cls in self.priorities)
        return tuple(cls.share / total for cls in self.priorities)

    def to_dict(self) -> Dict[str, Any]:
        auto = self.autoscale
        return {
            "autoscale": {
                "min_shards": auto.min_shards,
                "max_shards": auto.max_shards,
                "control_interval_s": auto.control_interval_s,
                "slo_target": auto.slo_target,
                "scale_up_burn": auto.scale_up_burn,
                "scale_down_burn": auto.scale_down_burn,
                "scale_up_step": auto.scale_up_step,
                "cooldown_s": auto.cooldown_s,
            },
            "admission": {
                "shed_queue_batches": self.admission.shed_queue_batches,
            },
            "priorities": [
                {"name": cls.name, "share": cls.share,
                 "weight": cls.weight}
                for cls in self.priorities
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScalePolicy":
        if not isinstance(data, Mapping):
            raise ScalePolicyError(
                f"policy document must be an object, "
                f"got {type(data).__name__}")
        unknown = set(data) - {"autoscale", "admission", "priorities"}
        if unknown:
            raise ScalePolicyError(
                f"unknown policy section(s): {sorted(unknown)}")
        autoscale = _policy_object(data.get("autoscale", {}), "autoscale",
                                   AutoscalePolicy, ScalePolicyError)
        admission = _policy_object(data.get("admission", {}), "admission",
                                   AdmissionPolicy, AdmissionPolicyError)
        raw = data.get("priorities")
        if raw is None:
            priorities = DEFAULT_PRIORITY_CLASSES
        else:
            if not isinstance(raw, (list, tuple)):
                raise PriorityMapError(
                    f"priorities must be a list, got {_kind(raw)}")
            priorities = tuple(
                _policy_object(entry, f"priorities[{index}]", PriorityClass,
                               PriorityMapError)
                for index, entry in enumerate(raw))
        return cls(autoscale=autoscale, admission=admission,
                   priorities=priorities)

    @classmethod
    def load(cls, path: str) -> "ScalePolicy":
        """Load a policy bundle from a JSON file."""
        with open(path) as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ScalePolicyError(
                    f"policy file {path!r} is not valid JSON: {exc}") \
                    from None
        return cls.from_dict(data)

    def dump(self, path: str) -> str:
        """Write the bundle as indented JSON; returns the path."""
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")
        return path
