"""Request streams for the serving simulator.

Arrival processes driving the discrete-event schedulers:

* :func:`poisson_arrivals` -- a seeded Poisson process at a target QPS
  (deterministic for a fixed seed, so simulations are reproducible and
  golden-traceable);
* :func:`trace_arrivals` -- replay of explicit arrival timestamps, for
  in-the-wild request logs and for tests that need exact control;
* :func:`bursty_arrival_times` / :func:`diurnal_arrival_times` /
  :func:`spike_arrival_times` -- nonhomogeneous Poisson streams (square
  -wave bursts, sinusoidal day/night cycles, a one-off traffic spike)
  generated by seeded thinning, the open-loop shapes the autoscaling
  experiments in :mod:`repro.scale` are driven by;
* :class:`ClosedLoopConfig` -- a closed-loop client population with
  exponential think time, where each client issues its next request
  only after the previous one resolves (the arrival process the
  elastic simulator synthesizes on the fly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Set, Tuple, Type

import numpy as np

__all__ = [
    "Request",
    "WorkloadConfigError",
    "ThinkTimeError",
    "ClosedLoopConfig",
    "poisson_arrival_times",
    "poisson_arrivals",
    "trace_arrivals",
    "validate_arrival_times",
    "request_columns",
    "bursty_arrival_times",
    "diurnal_arrival_times",
    "spike_arrival_times",
]


class WorkloadConfigError(ValueError):
    """A workload/arrival-process parameter is out of its domain."""


class ThinkTimeError(WorkloadConfigError):
    """Closed-loop think time must be a positive finite duration."""


@dataclass(frozen=True)
class Request:
    """One retrieval request admitted to the serving system."""

    req_id: int
    arrival_s: float


@dataclass(frozen=True)
class ClosedLoopConfig:
    """A closed-loop client population with exponential think time.

    ``n_clients`` clients each hold at most one request in flight; after
    a request resolves (completes or is shed) the client thinks for an
    exponentially distributed time with mean ``think_time_s`` and then
    issues the next one, until ``n_requests`` requests have been issued
    in total.  Offered load is therefore *elastic*: it backs off when
    the system slows down, the defining property of closed loops.
    """

    n_clients: int = 16
    think_time_s: float = 10e-3
    n_requests: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.n_clients, (int, np.integer)) \
                or isinstance(self.n_clients, bool) or self.n_clients < 1:
            raise WorkloadConfigError(
                f"n_clients must be an integer >= 1, got {self.n_clients!r}")
        if not np.isfinite(self.think_time_s) or self.think_time_s <= 0:
            raise ThinkTimeError(
                f"think_time_s must be positive and finite, "
                f"got {self.think_time_s!r}")
        if not isinstance(self.n_requests, (int, np.integer)) \
                or isinstance(self.n_requests, bool) \
                or self.n_requests < self.n_clients:
            raise WorkloadConfigError(
                f"n_requests must be an integer >= n_clients "
                f"({self.n_clients}), got {self.n_requests!r}")


def _validate_stream(qps: float, n_requests: int) -> None:
    if not isinstance(qps, (int, float, np.integer, np.floating)) \
            or isinstance(qps, bool) or not np.isfinite(qps) or qps <= 0:
        raise WorkloadConfigError(
            f"qps must be a positive finite rate, got {qps!r}")
    if not isinstance(n_requests, (int, np.integer)) \
            or isinstance(n_requests, bool) or n_requests < 1:
        raise WorkloadConfigError(
            f"n_requests must be an integer >= 1, got {n_requests!r}")


def poisson_arrival_times(qps: float, n_requests: int,
                          seed: int = 0) -> np.ndarray:
    """Arrival times of a deterministic Poisson stream, as an array.

    The columnar face of :func:`poisson_arrivals`: same gaps, same
    seed, same float64 values -- just without materializing a
    ``Request`` per arrival, which is what lets the vectorized core's
    ``run_arrays`` fast path stay allocation-free on million-query
    workloads.
    """
    _validate_stream(qps, n_requests)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / qps, size=n_requests)
    return np.cumsum(gaps)


def poisson_arrivals(qps: float, n_requests: int,
                     seed: int = 0) -> List[Request]:
    """A deterministic Poisson request stream.

    Inter-arrival gaps are exponential with mean ``1/qps``, drawn from
    a seeded generator; the same ``(qps, n_requests, seed)`` triple
    always yields bit-identical arrivals.
    """
    times = poisson_arrival_times(qps, n_requests, seed)
    return [Request(req_id=i, arrival_s=float(t))
            for i, t in enumerate(times)]


def validate_arrival_times(times_s: Iterable[float],
                           error: Type[ValueError] = WorkloadConfigError
                           ) -> np.ndarray:
    """Explicit arrival timestamps as a float64 array, or ``error``.

    The one check behind every entry point that accepts explicit
    arrivals (:func:`trace_arrivals`, ``ScaleConfig.arrivals``, the
    schedulers): the stream must be a non-empty 1-d sequence of finite,
    non-negative times sorted ascending.  A NaN or infinite time would
    otherwise slip past every ordering comparison and stall or poison
    the run.
    """
    if not isinstance(times_s, np.ndarray):
        times_s = list(times_s)
    try:
        times = np.asarray(times_s, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise error(f"arrival times must be numbers: {exc}") from None
    if times.ndim != 1 or times.size == 0:
        raise error("arrival times must be a non-empty 1-d sequence")
    if not bool(np.isfinite(times).all()):
        raise error("arrival times must be finite")
    if float(times[0]) < 0:
        raise error("arrival times must be non-negative")
    if bool((times[1:] < times[:-1]).any()):
        raise error("arrival times must be sorted ascending")
    return times


def _ordered(requests: Sequence[Request]) -> List[Request]:
    """Requests in arrival order (ties by id); ids must be unique and
    the arrival times must pass :func:`validate_arrival_times`."""
    if not requests:
        raise ValueError("at least one request is required")
    ordered = sorted(requests, key=lambda r: (r.arrival_s, r.req_id))
    seen: Set[int] = set()
    for request in ordered:
        if request.req_id in seen:
            raise ValueError(f"duplicate req_id {request.req_id}")
        seen.add(request.req_id)
    validate_arrival_times([r.arrival_s for r in ordered])
    return ordered


def request_columns(requests: Sequence[Request]
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """``(arrival times, request ids)`` in the serving loops' processing
    order (arrival, then id), validated by :func:`_ordered`."""
    ordered = _ordered(requests)
    return (np.asarray([r.arrival_s for r in ordered], dtype=np.float64),
            np.asarray([r.req_id for r in ordered], dtype=np.int64))


def trace_arrivals(times_s: Iterable[float]) -> List[Request]:
    """Replay explicit arrival timestamps (see
    :func:`validate_arrival_times`)."""
    times = validate_arrival_times(times_s).tolist()
    return [Request(req_id=i, arrival_s=t) for i, t in enumerate(times)]


def _thinned_arrival_times(rate_fn: Callable[[np.ndarray], np.ndarray],
                           peak_qps: float, n_requests: int,
                           seed: int) -> np.ndarray:
    """Nonhomogeneous Poisson arrivals by seeded Lewis-Shedler thinning.

    Candidate arrivals are drawn from a homogeneous process at
    ``peak_qps`` and kept with probability ``rate_fn(t) / peak_qps``;
    the generator keeps drawing fixed-size candidate chunks from one
    seeded stream until ``n_requests`` survive, so the output is
    bit-deterministic for a fixed ``(rate_fn, peak_qps, n_requests,
    seed)`` regardless of how many chunks it takes.
    """
    rng = np.random.default_rng(seed)
    chunk = max(256, 2 * n_requests)
    kept: List[np.ndarray] = []
    n_kept = 0
    t_last = 0.0
    while n_kept < n_requests:
        gaps = rng.exponential(1.0 / peak_qps, size=chunk)
        candidates = t_last + np.cumsum(gaps)
        t_last = float(candidates[-1])
        accept_p = np.asarray(rate_fn(candidates), dtype=np.float64) \
            / peak_qps
        if np.any(accept_p < 0.0) or np.any(accept_p > 1.0):
            raise WorkloadConfigError(
                "rate function must stay within [0, peak] over the "
                "generated horizon")
        keep = candidates[rng.uniform(size=chunk) < accept_p]
        kept.append(keep)
        n_kept += len(keep)
    return np.concatenate(kept)[:n_requests]


def bursty_arrival_times(qps: float, n_requests: int, seed: int = 0, *,
                         burst_multiplier: float = 4.0,
                         period_s: float = 0.100,
                         duty: float = 0.25) -> np.ndarray:
    """A square-wave bursty stream: quiet floor, periodic bursts.

    The instantaneous rate alternates between a burst plateau (the
    first ``duty`` fraction of every ``period_s`` window, at
    ``burst_multiplier`` times the floor) and the quiet floor, with the
    floor chosen so the *mean* rate over a full period is ``qps``.
    """
    _validate_stream(qps, n_requests)
    if not np.isfinite(burst_multiplier) or burst_multiplier < 1.0:
        raise WorkloadConfigError(
            f"burst_multiplier must be >= 1, got {burst_multiplier!r}")
    if not np.isfinite(period_s) or period_s <= 0:
        raise WorkloadConfigError(
            f"period_s must be positive, got {period_s!r}")
    if not 0.0 < duty < 1.0:
        raise WorkloadConfigError(
            f"duty must be in (0, 1), got {duty!r}")
    floor = qps / (duty * burst_multiplier + (1.0 - duty))
    peak = floor * burst_multiplier

    def rate(t: np.ndarray) -> np.ndarray:
        phase = np.mod(t, period_s) / period_s
        return np.where(phase < duty, peak, floor)

    return _thinned_arrival_times(rate, peak, n_requests, seed)


def diurnal_arrival_times(qps: float, n_requests: int, seed: int = 0, *,
                          period_s: float = 1.0,
                          amplitude: float = 0.8) -> np.ndarray:
    """A sinusoidal day/night stream with mean rate ``qps``.

    ``rate(t) = qps * (1 + amplitude * sin(2 pi t / period_s))``; the
    amplitude must stay below 1 so the rate never goes negative.
    """
    _validate_stream(qps, n_requests)
    if not np.isfinite(period_s) or period_s <= 0:
        raise WorkloadConfigError(
            f"period_s must be positive, got {period_s!r}")
    if not 0.0 <= amplitude < 1.0:
        raise WorkloadConfigError(
            f"amplitude must be in [0, 1), got {amplitude!r}")
    peak = qps * (1.0 + amplitude)

    def rate(t: np.ndarray) -> np.ndarray:
        return qps * (1.0 + amplitude * np.sin(
            2.0 * np.pi * t / period_s))

    return _thinned_arrival_times(rate, peak, n_requests, seed)


def spike_arrival_times(qps: float, n_requests: int, seed: int = 0, *,
                        spike_start_s: float = 0.050,
                        spike_duration_s: float = 0.100,
                        spike_multiplier: float = 10.0) -> np.ndarray:
    """A steady stream with one traffic spike (the 10x flash crowd).

    The rate sits at ``qps`` except inside ``[spike_start_s,
    spike_start_s + spike_duration_s)`` where it jumps to
    ``spike_multiplier * qps`` -- the canonical overload scenario the
    autoscaling benchmark gates.
    """
    _validate_stream(qps, n_requests)
    if not np.isfinite(spike_start_s) or spike_start_s < 0:
        raise WorkloadConfigError(
            f"spike_start_s must be >= 0, got {spike_start_s!r}")
    if not np.isfinite(spike_duration_s) or spike_duration_s <= 0:
        raise WorkloadConfigError(
            f"spike_duration_s must be positive, got {spike_duration_s!r}")
    if not np.isfinite(spike_multiplier) or spike_multiplier < 1.0:
        raise WorkloadConfigError(
            f"spike_multiplier must be >= 1, got {spike_multiplier!r}")
    peak = qps * spike_multiplier
    spike_end = spike_start_s + spike_duration_s

    def rate(t: np.ndarray) -> np.ndarray:
        in_spike = (t >= spike_start_s) & (t < spike_end)
        return np.where(in_spike, peak, qps)

    return _thinned_arrival_times(rate, peak, n_requests, seed)
