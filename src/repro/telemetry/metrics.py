"""Deterministic metrics: counters, gauges, exact histograms, SLO burn.

A :class:`MetricsRegistry` is the run-scoped sink the telemetry
pipeline populates.  Everything is exact and bit-deterministic -- the
simulators are seeded discrete-event models, so metrics are model
outputs, not samples -- which lets the Prometheus exposition be pinned
as a golden file.

Histograms use **fixed boundaries** and an exact quantile rule chosen
to agree with :func:`repro.serve.metrics.nearest_rank_percentile`:
``quantile(p)`` returns the smallest bucket boundary at or above the
nearest-rank p-th percentile of the observed samples (``inf`` when it
falls in the overflow bucket).  That is the tightest statement a
fixed-boundary histogram can make, and the property suite pins it.

SLO **burn rate** follows the SRE convention: over a window, the
fraction of requests violating the SLO divided by the error budget
(``1 - target``).  A burn rate of 1 means the deployment spends budget
exactly as fast as it accrues; above 1 it is burning toward violation.
"""

from __future__ import annotations

import functools
import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistrationError",
    "MetricsRegistry",
    "BurnWindow",
    "require_error_budget",
    "unchecked_burn_rate",
    "window_burn_rate",
    "slo_burn_windows",
    "DEFAULT_LATENCY_BOUNDS_S",
]

#: Fixed latency-histogram boundaries (seconds): 1-2-5 ladder from
#: 100 us to 5 s, wide enough for every paper corpus and fault plan.
DEFAULT_LATENCY_BOUNDS_S = (
    1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2,
    1e-1, 2e-1, 5e-1, 1.0, 2.0, 5.0,
)

#: Canonical label-set key: sorted (name, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _fmt_value(value: float) -> str:
    """Deterministic exposition formatting (ints bare, floats repr)."""
    if value.__class__ is not float:
        if isinstance(value, int):  # bools print as 0/1
            return str(int(value))
        value = float(value)
    if value.is_integer():
        return str(int(value)) if abs(value) < 1e15 else repr(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


@functools.lru_cache(maxsize=4096)
def _fmt_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + inner + "}"


class _Metric:
    """Shared name/help plumbing for the three metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str):
        if not name or not name.replace("_", "a").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help_text = help_text

    def header_lines(self) -> List[str]:
        return [f"# HELP {self.name} {self.help_text}",
                f"# TYPE {self.name} {self.kind}"]


class _Scalar(_Metric):
    """One float per label set: the exposition both scalar kinds share."""

    def __init__(self, name: str, help_text: str):
        super().__init__(name, help_text)
        self._samples: Dict[LabelKey, float] = {}

    def expose_lines(self) -> List[str]:
        name, samples = self.name, self._samples
        return [*self.header_lines(),
                *[f"{name}{_fmt_labels(key)} {_fmt_value(samples[key])}"
                  for key in sorted(samples)]]

    def snapshot(self) -> List[Dict[str, object]]:
        return [{"labels": dict(key), "value": self._samples[key]}
                for key in sorted(self._samples)]


class Counter(_Scalar):
    """Monotonically accumulated totals, keyed by label set."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels: str) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease "
                             f"(inc by {value!r})")
        if math.isnan(value):
            raise ValueError(f"counter {self.name} cannot add NaN "
                             f"(inc by {value!r})")
        key = _label_key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + value

    def value(self, **labels: str) -> float:
        return self._samples.get(_label_key(labels), 0.0)


class Gauge(_Scalar):
    """Last-written point-in-time values, keyed by label set."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        self._samples[_label_key(labels)] = float(value)

    def value(self, **labels: str) -> Optional[float]:
        return self._samples.get(_label_key(labels))


class _HistogramSeries:
    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * n_buckets   # per-bucket, not cumulative
        self.total = 0.0
        self.count = 0


@functools.lru_cache(maxsize=None)
def _bucket_suffixes(boundaries: Tuple[float, ...]) -> Tuple[str, ...]:
    """Each bucket line's ``le`` label (last, after the series' own
    labels) and the line's closing brace."""
    return tuple(f'le="{_fmt_value(bound)}"}} ' for bound in boundaries)


class Histogram(_Metric):
    """Exact fixed-boundary histogram with nearest-rank quantiles."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 boundaries: Sequence[float] = DEFAULT_LATENCY_BOUNDS_S):
        super().__init__(name, help_text)
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise ValueError("histogram needs at least one boundary")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError("histogram boundaries must be finite")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"boundaries must be strictly increasing, got {bounds!r}")
        self.boundaries = bounds
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: str) -> None:
        self.observe_many((value,), **labels)

    def observe_many(self, values: Iterable[float], **labels: str) -> None:
        """Observe ``values`` in order into one label set's series.

        Each lands in the first bucket whose bound is at or above it
        (the overflow bucket past the last bound), and ``total`` is a
        left fold of the values, so this equals one :meth:`observe` per
        value bit for bit.  A NaN anywhere raises before the series
        changes.
        """
        samples = list(values)
        for value in samples:
            if math.isnan(value):
                raise ValueError(f"histogram {self.name}: NaN observation")
        if not samples:
            return
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(
                len(self.boundaries) + 1)
        counts = series.bucket_counts
        bounds = self.boundaries
        total = series.total
        for value in samples:
            counts[bisect_left(bounds, value)] += 1
            total += value
        series.total = total
        series.count += len(samples)

    def count(self, **labels: str) -> int:
        series = self._series.get(_label_key(labels))
        return 0 if series is None else series.count

    def quantile(self, pct: float, **labels: str) -> float:
        """Smallest boundary at/above the nearest-rank percentile.

        ``inf`` when the rank falls in the overflow bucket; raises on
        an empty series, matching ``nearest_rank_percentile``.
        """
        if not 0 < pct <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {pct!r}")
        series = self._series.get(_label_key(labels))
        if series is None or series.count == 0:
            raise ValueError(
                f"quantile of empty histogram series {self.name}")
        rank = max(1, math.ceil(pct / 100.0 * series.count))
        cumulative = 0
        for i, bound in enumerate(self.boundaries):
            cumulative += series.bucket_counts[i]
            if cumulative >= rank:
                return bound
        return math.inf

    def expose_lines(self) -> List[str]:
        lines = self.header_lines()
        les = _bucket_suffixes(self.boundaries)
        for key in sorted(self._series):
            series = self._series[key]
            labels = _fmt_labels(key)
            bucket = f"{self.name}_bucket{{{labels[1:-1]}{',' if key else ''}"
            lines.extend([f"{bucket}{le}{cumulative}" for le, cumulative
                          in zip(les, accumulate(series.bucket_counts))])
            lines.append(f'{bucket}le="+Inf"}} {series.count}')
            lines.append(f"{self.name}_sum{labels} "
                         f"{_fmt_value(series.total)}")
            lines.append(f"{self.name}_count{labels} {series.count}")
        return lines

    def snapshot(self) -> List[Dict[str, object]]:
        rows = []
        for key in sorted(self._series):
            series = self._series[key]
            rows.append({
                "labels": dict(key),
                "buckets": dict(zip(
                    [_fmt_value(b) for b in self.boundaries] + ["+Inf"],
                    series.bucket_counts)),
                "sum": series.total,
                "count": series.count,
            })
        return rows


class MetricRegistrationError(ValueError):
    """A metric name was re-registered with conflicting identity.

    Raised when one registry sees the same name twice with a different
    metric kind **or a different non-empty help text**: two call sites
    silently sharing one counter under divergent descriptions is a
    telemetry bug, not a merge.  Re-registering with identical kind and
    help returns the existing metric; an empty help makes no claim (it
    is a plain lookup, and the first non-empty help backfills it).
    """


class MetricsRegistry:
    """Ordered collection of metrics with text + JSON exposition."""

    def __init__(self):
        self._metrics: Dict[str, _Metric] = {}

    def _register(self, metric: _Metric) -> _Metric:
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if type(existing) is not type(metric):
                raise MetricRegistrationError(
                    f"metric {metric.name!r} already registered as "
                    f"{existing.kind}")
            if metric.help_text and existing.help_text \
                    and existing.help_text != metric.help_text:
                raise MetricRegistrationError(
                    f"metric {metric.name!r} already registered with "
                    f"help {existing.help_text!r}, re-registered with "
                    f"{metric.help_text!r}")
            if metric.help_text and not existing.help_text:
                existing.help_text = metric.help_text
            return existing
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        metric = self._register(Counter(name, help_text))
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        metric = self._register(Gauge(name, help_text))
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str, help_text: str = "",
                  boundaries: Sequence[float] = DEFAULT_LATENCY_BOUNDS_S,
                  ) -> Histogram:
        metric = self._register(Histogram(name, help_text, boundaries))
        assert isinstance(metric, Histogram)
        return metric

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def expose(self) -> str:
        """Prometheus text exposition format (deterministic order)."""
        lines: List[str] = []
        for metric in self._metrics.values():
            lines.extend(metric.expose_lines())  # type: ignore[attr-defined]
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, object]:
        """JSON-able dict of every metric's samples."""
        return {
            name: {"kind": metric.kind,
                   "help": metric.help_text,
                   "samples": metric.snapshot()}  # type: ignore[attr-defined]
            for name, metric in self._metrics.items()
        }

    def snapshot_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=False)


@dataclass(frozen=True)
class BurnWindow:
    """SLO error-budget burn over one fixed window of simulated time."""

    index: int
    start_s: float
    end_s: float
    n_requests: int
    n_violations: int

    def error_rate(self) -> float:
        if self.n_requests == 0:
            return 0.0
        return self.n_violations / self.n_requests

    def burn_rate(self, budget: float) -> float:
        """Error rate over budget (1.0 = burning exactly at budget)."""
        return window_burn_rate(self.n_requests, self.n_violations, budget)


def require_error_budget(budget: float) -> None:
    """Reject a non-positive error budget."""
    if budget <= 0:
        raise ValueError(f"error budget must be positive, "
                         f"got {budget!r}")


def unchecked_burn_rate(n_requests: int, n_violations: int,
                        budget: float) -> float:
    """:func:`window_burn_rate` for a budget the caller has already
    passed through :func:`require_error_budget`."""
    rate = n_violations / n_requests if n_requests else 0.0
    return rate / budget


def window_burn_rate(n_requests: int, n_violations: int,
                     budget: float) -> float:
    """:meth:`BurnWindow.burn_rate` of a window's counts, without
    building the window."""
    require_error_budget(budget)
    return unchecked_burn_rate(n_requests, n_violations, budget)


def slo_burn_windows(arrivals_s: Sequence[float],
                     latencies_s: Sequence[float],
                     slo_s: float,
                     horizon_s: float,
                     n_windows: int = 4) -> List[BurnWindow]:
    """Partition the run into fixed windows and count SLO violations.

    Requests are assigned to windows by *arrival* time (the offered
    load is what burns budget).  A zero-length horizon degenerates to
    one window holding every request.
    """
    if len(arrivals_s) != len(latencies_s):
        raise ValueError("arrival/latency length mismatch")
    if slo_s <= 0:
        raise ValueError(f"SLO must be positive, got {slo_s!r}")
    if n_windows < 1:
        raise ValueError(f"need at least one window, got {n_windows!r}")
    if horizon_s < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon_s!r}")
    if horizon_s == 0:
        windows = [BurnWindow(
            index=0, start_s=0.0, end_s=0.0,
            n_requests=len(arrivals_s),
            n_violations=sum(1 for lat in latencies_s if lat > slo_s))]
        return windows
    width = horizon_s / n_windows
    counts = [0] * n_windows
    violations = [0] * n_windows
    for arrival, latency in zip(arrivals_s, latencies_s):
        index = min(n_windows - 1, max(0, int(arrival / width)))
        counts[index] += 1
        if latency > slo_s:
            violations[index] += 1
    return [BurnWindow(index=i, start_s=i * width, end_s=(i + 1) * width,
                       n_requests=counts[i], n_violations=violations[i])
            for i in range(n_windows)]
