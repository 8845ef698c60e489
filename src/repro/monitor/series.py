"""Time-series containers for the run monitor.

A :class:`Series` is one named, labeled stream of ``(t_s, value)``
points sampled at the monitor's instants; a :class:`RunMonitor` is the
full sampled view of one run -- the instants, every series, and the
end-of-run registry exposition the scrape export extends.  Both are
frozen value objects with dict round-trips so run bundles can persist
them and the differ can align them across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

__all__ = ["MonitorError", "Series", "RunMonitor"]


class MonitorError(ValueError):
    """Raised for invalid monitor construction or lookups."""


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
    def from_dict(cls, data: Mapping[str, Any]) -> "Series":
        return cls(
            name=str(data["name"]),
            help_text=str(data["help"]),
            kind=str(data["kind"]),
            labels=tuple(
                (str(k), str(v)) for k, v in data.get("labels", [])),
            points=tuple(
                (float(t), float(v)) for t, v in data.get("points", [])),
        )


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

    def with_labels(self, name: str) -> Tuple[Series, ...]:
        """Every series sharing ``name`` (one per label set)."""
        return tuple(s for s in self.series if s.name == name)

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
    def from_dict(cls, data: Mapping[str, Any]) -> "RunMonitor":
        return cls(
            workload=str(data["workload"]),
            cadence_s=float(data["cadence_s"]),
            horizon_s=float(data["horizon_s"]),
            instants=tuple(float(t) for t in data.get("instants", [])),
            series=tuple(
                Series.from_dict(s) for s in data.get("series", [])),
            registry_exposition=str(data.get("registry_exposition", "")),
        )
