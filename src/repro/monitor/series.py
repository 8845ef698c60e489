"""Time-series containers for the run monitor.

A :class:`Series` is one named, labeled stream of ``(t_s, value)``
points sampled at the monitor's instants; a :class:`RunMonitor` is the
full sampled view of one run -- the instants, every series, and the
end-of-run registry exposition the scrape export extends.  Both are
frozen value objects with dict round-trips so run bundles can persist
them and the differ can align them across runs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Tuple, TypeVar

__all__ = ["MonitorError", "Series", "RunMonitor"]


class MonitorError(ValueError):
    """Raised for invalid monitor construction or lookups."""


_T = TypeVar("_T")
_REQUIRED: Any = object()


def json_object(data: Any, where: str) -> Mapping[str, Any]:
    """``data`` if it is a JSON object, else a ``ValueError`` naming
    ``where``."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{where} must be a JSON object, "
                         f"got {type(data).__name__}")
    return data


def json_field(data: Mapping[str, Any], where: str, key: str,
               parse: Callable[[Any], _T], default: Any = _REQUIRED) -> _T:
    """``parse`` of field ``key`` (or of ``default`` when it is absent).

    A missing required field, or a value ``parse`` rejects, raises
    ``ValueError`` naming the path ``where.key`` (``key`` alone when
    ``where`` is empty).
    """
    path = f"{where}.{key}" if where else key
    if key not in data and default is _REQUIRED:
        raise ValueError(f"missing field {path!r}")
    try:
        return parse(data.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _json_list(raw: Any) -> List[Any]:
    if not isinstance(raw, list):
        raise TypeError(f"expected a list, got {type(raw).__name__}")
    return raw


def _pairs(parse: Callable[[Any], _T]
           ) -> Callable[[Any], Tuple[Tuple[_T, _T], ...]]:
    """Parser of a JSON list of ``[a, b]`` pairs, items through ``parse``."""
    return lambda raw: tuple((parse(a), parse(b)) for a, b in _json_list(raw))


@functools.lru_cache(maxsize=1024)
def _label_str(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


@dataclass(frozen=True)
class Series:
    """One metric stream: gauge or cumulative counter over the instants."""

    name: str
    help_text: str
    kind: str  # "gauge" | "counter"
    labels: Tuple[Tuple[str, str], ...] = ()
    points: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("gauge", "counter"):
            raise MonitorError(f"unknown series kind {self.kind!r}")

    @property
    def key(self) -> str:
        """``name{label=value,...}`` -- unique within a monitor."""
        return self.name + _label_str(self.labels)

    def final(self) -> float:
        """The last sampled value (the end-of-run reading)."""
        if not self.points:
            raise MonitorError(f"series {self.key} has no points")
        return self.points[-1][1]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "help": self.help_text,
            "kind": self.kind,
            "labels": [list(pair) for pair in self.labels],
            "points": [list(p) for p in self.points],
        }

    @classmethod
    def from_dict(cls, data: Any, where: str = "series") -> "Series":
        """Parse :meth:`to_dict` output; a malformed entry raises
        ``ValueError`` naming its path under ``where``."""
        read: Callable[..., Any] = partial(
            json_field, json_object(data, where), where)
        try:
            return cls(name=read("name", str), help_text=read("help", str),
                       kind=read("kind", str),
                       labels=read("labels", _pairs(str), []),
                       points=read("points", _pairs(float), []))
        except MonitorError as exc:
            raise MonitorError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class RunMonitor:
    """The full sampled time-series view of one run."""

    workload: str
    cadence_s: float
    horizon_s: float
    #: Every sampling instant: the cadence ladder merged with the
    #: autoscaler's tick instants (exact-float dedup, ascending).
    instants: Tuple[float, ...]
    series: Tuple[Series, ...] = ()
    #: The end-of-run metrics registry exposition this monitor's scrape
    #: export is a superset of.
    registry_exposition: str = ""
    _index: Mapping[str, Series] = field(
        init=False, repr=False, compare=False, hash=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        index: Dict[str, Series] = {}
        for s in self.series:
            key = s.key
            if key in index:
                raise MonitorError(f"duplicate series {key}")
            index[key] = s
        object.__setattr__(self, "_index", index)

    def get(self, name: str, **labels: str) -> Series:
        """Look one series up by name and exact label set."""
        key = name + _label_str(tuple(sorted(labels.items())))
        try:
            return self._index[key]
        except KeyError:
            raise MonitorError(f"no series {key!r} in monitor") from None

    def names(self) -> List[str]:
        """Distinct series names in first-seen order."""
        seen: Dict[str, None] = {}
        for s in self.series:
            seen.setdefault(s.name, None)
        return list(seen)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "cadence_s": self.cadence_s,
            "horizon_s": self.horizon_s,
            "instants": list(self.instants),
            "series": [s.to_dict() for s in self.series],
            "registry_exposition": self.registry_exposition,
        }

    @classmethod
    def from_dict(cls, data: Any, where: str = "monitor") -> "RunMonitor":
        """Parse :meth:`to_dict` output; a malformed field raises
        ``ValueError`` naming its path under ``where`` (e.g.
        ``monitor.series[0].help``)."""
        read: Callable[..., Any] = partial(
            json_field, json_object(data, where), where)
        series = tuple(
            Series.from_dict(entry, f"{where}.series[{index}]")
            for index, entry in enumerate(read("series", _json_list, [])))
        try:
            return cls(
                workload=read("workload", str),
                cadence_s=read("cadence_s", float),
                horizon_s=read("horizon_s", float),
                instants=read("instants", lambda raw: tuple(
                    float(t) for t in _json_list(raw)), []),
                series=series,
                registry_exposition=read("registry_exposition", str, ""),
            )
        except MonitorError as exc:
            raise MonitorError(f"{where}: {exc}") from None
