"""Deterministic fault-state queries over a :class:`FaultPlan`.

The :class:`FaultInjector` is the runtime face of a plan: the scheduler
asks it four questions -- *is this shard reachable now*, *how much
slower is a batch dispatched now*, *when does the next outage begin*,
and *how long does the shard stay calm from now*
(:meth:`FaultInjector.calm_until`: up, multiplier exactly one, no
stuck-at cell) -- and every answer is a pure function of the plan, so a
replay with the same plan and request stream is bit-identical.

Each shard's script is compiled once, at construction, into sorted
columns: the merged outage windows (overlapping scripted outages behave
as their union), the transient-flip and stuck-at faults beside their
onset times, and a piecewise-constant slowdown timeline whose
breakpoints are every stall and recovery-ramp edge.  A query is one
``bisect`` into those columns, or an early return for a shard the plan
never touches.  The queries keep no cursor, so callers may ask them in
any time order (control ticks and telemetry do).  (Contradictory
overlaps -- a restart after a permanent failure, or a recovery ramp
inside another outage -- are rejected by
:class:`~repro.faults.plan.FaultPlan` itself, so the union is always
well defined here.)

Bit-flip faults add two more queries: *which transient upsets are
scripted for this shard* (:meth:`FaultInjector.transient_flips` with
their :meth:`~FaultInjector.transient_onsets`, which the scheduler walks
with a consume-once cursor) and *which stuck-at cells are wedged now*
(:meth:`FaultInjector.stuck_active`).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Any, Dict, Iterable, List, Tuple

from .plan import BitFlipFault, FaultPlan, OutageFault, StallFault

__all__ = ["FaultInjector"]

#: ``(end_s, recovery_s, recovery_slowdown)`` of one open slow-start ramp.
_Ramp = Tuple[float, float, float]
#: The ``(faults, onset times)`` columns of a shard with no such faults.
_NO_FLIPS: Tuple[Tuple[BitFlipFault, ...], Tuple[float, ...]] = ((), ())


def _by_shard(faults: Iterable[Any]) -> Dict[int, List[Any]]:
    """The faults grouped by shard id, in script order."""
    grouped: Dict[int, List[Any]] = {}
    for fault in faults:
        grouped.setdefault(fault.shard_id, []).append(fault)
    return grouped


def _by_onset(flips: List[BitFlipFault]
              ) -> Tuple[Tuple[BitFlipFault, ...], Tuple[float, ...]]:
    """The flips sorted by onset, beside their onset times."""
    ordered = tuple(sorted(flips, key=lambda f: f.t_s))
    return ordered, tuple(f.t_s for f in ordered)


def _merged_windows(outages: List[OutageFault]
                    ) -> Tuple[List[float], List[float]]:
    """Starts and ends of the disjoint, sorted ``[start, end)`` union of
    the outage windows."""
    starts: List[float] = []
    ends: List[float] = []
    for start, end in sorted((o.start_s, o.end_s) for o in outages):
        if ends and start <= ends[-1]:
            ends[-1] = max(ends[-1], end)
        else:
            starts.append(start)
            ends.append(end)
    return starts, ends


class _Slowdowns:
    """One shard's service-time multiplier as a piecewise timeline.

    Between two consecutive breakpoints the set of open stall windows
    and recovery ramps is constant, so each segment stores the product
    of its stalls' slowdowns (folded from ``1.0`` in script order) and
    its open ramps; :meth:`FaultInjector.multiplier` multiplies the
    ramps' factors on in script order, exactly as a scan of the script
    would.
    """

    __slots__ = ("breaks", "factors", "ramps", "sources")

    def __init__(self, stalls: List[StallFault],
                 recoveries: List[OutageFault]):
        stall_windows = [(s.start_s, s.end_s, s.slowdown)
                         for s in sorted(stalls,
                                         key=lambda f: (f.start_s, f.end_s))]
        ramp_windows = [(o.end_s, o.end_s + o.recovery_s,
                         (o.end_s, o.recovery_s, o.recovery_slowdown))
                        for o in sorted(recoveries,
                                        key=lambda f: (f.start_s, f.end_s))]
        edges = {edge for lo, hi, _ in stall_windows + ramp_windows
                 for edge in (lo, hi)}
        self.breaks: List[float] = sorted(edges)
        self.factors: List[float] = []
        self.ramps: List[Tuple[_Ramp, ...]] = []
        self.sources: List[Tuple[str, ...]] = []
        for t_s in self.breaks:
            factor = 1.0
            stalled: Tuple[str, ...] = ()
            for lo, hi, slowdown in stall_windows:
                if lo <= t_s < hi:
                    factor *= slowdown
                    stalled = ("stall",)
            ramps = tuple(ramp for lo, hi, ramp in ramp_windows
                          if lo <= t_s < hi)
            self.factors.append(factor)
            self.ramps.append(ramps)
            self.sources.append(stalled + (("recovery",) if ramps else ()))


class FaultInjector:
    """Answer fault-state queries for an ``n_shards`` deployment."""

    def __init__(self, plan: FaultPlan, n_shards: int):
        plan.validate_for(n_shards)
        self.plan = plan
        self.n_shards = n_shards
        #: Shard id -> merged outage ``(starts, ends)`` columns.
        self._windows: Dict[int, Tuple[List[float], List[float]]] = {
            shard_id: _merged_windows(outages)
            for shard_id, outages in _by_shard(plan.outages).items()}
        stalls = _by_shard(plan.stalls)
        recoveries = _by_shard(o for o in plan.outages if o.recovery_s > 0)
        #: Shard id -> slowdown timeline, for shards with any stall or
        #: recovery ramp.
        self._slowdowns: Dict[int, _Slowdowns] = {
            shard_id: _Slowdowns(stalls.get(shard_id, []),
                                 recoveries.get(shard_id, []))
            for shard_id in set(stalls) | set(recoveries)}
        #: Shard id -> ``(faults, onset times)``, both sorted by onset.
        self._flips = {shard_id: _by_onset(flips) for shard_id, flips in
                       _by_shard(f for f in plan.bit_flips
                                 if not f.persistent).items()}
        self._stuck = {shard_id: _by_onset(flips) for shard_id, flips in
                       _by_shard(f for f in plan.bit_flips
                                 if f.persistent).items()}
        self._flip_shards = frozenset(self._flips) | frozenset(self._stuck)

    def __bool__(self) -> bool:
        return bool(self.plan)

    # ------------------------------------------------------------------
    # Availability
    # ------------------------------------------------------------------
    def is_down(self, shard_id: int, t_s: float) -> bool:
        """Whether the shard's device is unreachable at ``t_s``."""
        return bool(self.next_up(shard_id, t_s) > t_s)

    def next_up(self, shard_id: int, t_s: float) -> float:
        """Earliest time ``>= t_s`` the device is reachable.

        ``inf`` when the covering outage (or an overlapping chain of
        outages) is permanent.
        """
        windows = self._windows.get(shard_id)
        if windows is None:
            return t_s
        starts, ends = windows
        i = bisect_right(starts, t_s) - 1
        if i >= 0 and t_s < ends[i]:
            return ends[i]
        return t_s

    def next_outage_start(self, shard_id: int, t_s: float) -> float:
        """Start of the first outage strictly after ``t_s`` (or ``inf``)."""
        windows = self._windows.get(shard_id)
        if windows is None:
            return math.inf
        starts = windows[0]
        i = bisect_right(starts, t_s)
        return starts[i] if i < len(starts) else math.inf

    def permanently_down_from(self, shard_id: int) -> float:
        """Time the shard goes dark forever (``inf`` if it never does)."""
        windows = self._windows.get(shard_id)
        if windows is not None and math.isinf(windows[1][-1]):
            return windows[0][-1]
        return math.inf

    # ------------------------------------------------------------------
    # Silent data corruption
    # ------------------------------------------------------------------
    def flips_in(self, shard_id: int, t0_s: float,
                 t1_s: float) -> Tuple[BitFlipFault, ...]:
        """Transient upsets striking the shard with ``t0_s <= t_s < t1_s``.

        A pure time-window query (no consumption state); stuck-at
        faults are excluded -- they persist and are reported by
        :meth:`stuck_active` instead.
        """
        flips, onsets = self._flips.get(shard_id, _NO_FLIPS)
        return flips[bisect_left(onsets, t0_s):bisect_left(onsets, t1_s)]

    def transient_flips(self, shard_id: int) -> Tuple[BitFlipFault, ...]:
        """All scripted transient upsets for a shard, sorted by onset.

        The scheduler walks this list with a consume-once cursor: a
        flip corrupts the first completing batch whose service window
        *ends* after the flip landed (corrupted data stays resident
        until the next batch reloads it), and never corrupts a second
        one.
        """
        return self._flips.get(shard_id, _NO_FLIPS)[0]

    def transient_onsets(self, shard_id: int) -> Tuple[float, ...]:
        """Onset times of :meth:`transient_flips`, in the same order."""
        return self._flips.get(shard_id, _NO_FLIPS)[1]

    def stuck_active(self, shard_id: int, t_s: float
                     ) -> Tuple[BitFlipFault, ...]:
        """Stuck-at faults wedged on the shard at ``t_s`` (onset passed)."""
        stuck = self._stuck.get(shard_id)
        if stuck is None:
            return ()
        return stuck[0][:bisect_right(stuck[1], t_s)]

    def has_bit_flips(self, shard_id: int) -> bool:
        """Whether the plan scripts any corruption for this shard."""
        return shard_id in self._flip_shards

    # ------------------------------------------------------------------
    # Calm stretches
    # ------------------------------------------------------------------
    def calm_until(self, shard_id: int, t_s: float) -> float:
        """End of the calm stretch ``[t_s, calm_until)`` (``t_s`` itself
        when the shard is not calm at ``t_s``).

        Throughout the stretch the shard is up, its :meth:`multiplier`
        is exactly ``1.0`` and no stuck-at cell is active; no outage
        starts, slowdown breakpoint or stuck-at onset lies inside it.
        Transient flips are not consulted: the scheduler clamps the
        stretch to its own consume-once cursor.
        """
        calm_hi = math.inf
        windows = self._windows.get(shard_id)
        if windows is not None:
            starts, ends = windows
            i = bisect_right(starts, t_s)
            if i and t_s < ends[i - 1]:
                return t_s
            if i < len(starts):
                calm_hi = starts[i]
        timeline = self._slowdowns.get(shard_id)
        if timeline is not None:
            breaks = timeline.breaks
            i = bisect_right(breaks, t_s)
            if i and (timeline.factors[i - 1] != 1.0 or timeline.ramps[i - 1]):
                return t_s
            if i < len(breaks) and breaks[i] < calm_hi:
                calm_hi = breaks[i]
        stuck = self._stuck.get(shard_id)
        if stuck is not None:
            first_onset = stuck[1][0]
            if first_onset <= t_s:
                return t_s
            if first_onset < calm_hi:
                calm_hi = first_onset
        return calm_hi

    # ------------------------------------------------------------------
    # Service-time degradation
    # ------------------------------------------------------------------
    def multiplier(self, shard_id: int, t_s: float) -> float:
        """Service-time multiplier for a batch dispatched at ``t_s``.

        The product of every open stall window's slowdown and every
        active slow-start recovery factor; recovery decays linearly
        from ``recovery_slowdown`` to one over the recovery window.
        Always ``>= 1``; exactly ``1.0`` when no fault is active.
        """
        timeline = self._slowdowns.get(shard_id)
        if timeline is None:
            return 1.0
        i = bisect_right(timeline.breaks, t_s) - 1
        if i < 0:
            return 1.0
        factor = timeline.factors[i]
        for end_s, recovery_s, recovery_slowdown in timeline.ramps[i]:
            progress = (t_s - end_s) / recovery_s
            factor *= (recovery_slowdown
                       - (recovery_slowdown - 1.0) * progress)
        return factor

    def multiplier_sources(self, shard_id: int, t_s: float
                           ) -> Tuple[str, ...]:
        """Which fault kinds inflate the multiplier at ``t_s``.

        Returns any of ``"stall"`` (an open stall window) and
        ``"recovery"`` (a slow-start ramp after an outage), in that
        order; empty when :meth:`multiplier` would return exactly 1.
        The telemetry layer uses this to annotate ``slowdown`` spans
        with *why* the batch stretched.
        """
        timeline = self._slowdowns.get(shard_id)
        if timeline is None:
            return ()
        i = bisect_right(timeline.breaks, t_s) - 1
        return timeline.sources[i] if i >= 0 else ()
