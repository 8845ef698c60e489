"""The one trailing-window SLO burn signal.

The elastic loop owns a live instance, fed in event order and read at
every control tick (the :class:`~repro.scale.controller.BurnRateController`
only turns the readings into verdicts).  The monitor's series builder
loads one from the run's completion record (:meth:`extend`) and reads
it at every instant no tick recorded.  Tests pin the monitor's samples
at ticks to the loop's readings, and between ticks to a brute-force
recount of the completion record.

Per class, the state is an append-only list of completion times and a
violation prefix (entry ``i`` counts the violations among the first
``i`` completions), plus one list of fault times.  Both callers read
at non-decreasing times, so a read bisects ``[now - window, now]`` from
a cursor that only moves forward and takes two differences, using the
:class:`~repro.telemetry.metrics.BurnWindow` arithmetic of the post-run
telemetry.  A consumed prefix longer than the live part is dropped, so
a live run holds ``O(window)`` entries.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

from ..telemetry.metrics import BurnWindow, require_error_budget, \
    unchecked_burn_rate

__all__ = ["BurnSignal"]

#: Consumed entries a class keeps before its prefix may be dropped.
_TRIM = 1024


class BurnSignal:
    """Trailing-window completion/violation/fault bookkeeping.

    ``window_s`` is the window width (the control interval or the
    monitor's cadence), ``slo_s`` the latency objective a violating
    completion exceeds, ``n_classes`` the priority classes tracked
    apart.  Note in time order; read at non-decreasing ``now_s``.
    """

    def __init__(self, window_s: float, slo_s: float, n_classes: int = 1):
        if not (math.isfinite(window_s) and window_s > 0):
            raise ValueError(
                f"window_s must be positive and finite, got {window_s!r}")
        if not (math.isfinite(slo_s) and slo_s > 0):
            raise ValueError(
                f"slo_s must be positive and finite, got {slo_s!r}")
        if n_classes < 1:
            raise ValueError(f"n_classes must be >= 1, got {n_classes!r}")
        self.window_s = window_s
        self.slo_s = slo_s
        #: Per-class completion times, in completion order.
        self._done: List[List[float]] = [[] for _ in range(n_classes)]
        #: Per-class violation prefix: ``_bad[c][i]`` violations among
        #: the first ``i`` entries of ``_done[c]``.
        self._bad: List[List[int]] = [[0] for _ in range(n_classes)]
        #: Per-class index of the first completion inside the last read.
        self._cursor = [0] * n_classes
        #: Fault-event timestamps (deaths, stall onsets) in event order.
        self._faults: List[float] = []
        self._fault_cursor = 0

    def note_completion(self, done_s: float, tti_latency_s: float,
                        priority: int = 0) -> None:
        """Record one resolved request (call in completion order)."""
        self._done[priority].append(done_s)
        bad = self._bad[priority]
        bad.append(bad[-1] + (tti_latency_s > self.slo_s))

    def extend(self, done_s: Sequence[float],
               tti_latency_s: Sequence[float],
               priorities: Optional[Sequence[int]] = None) -> None:
        """Record many resolved requests at once, in completion order.

        Bitwise :meth:`note_completion` per entry; with no
        ``priorities`` every completion is class 0's.
        """
        columns: Sequence[Tuple[Sequence[float], Sequence[float]]] = \
            [(done_s, tti_latency_s)] if priorities is None else [
                ([t for t, p in zip(done_s, priorities) if p == cls],
                 [x for x, p in zip(tti_latency_s, priorities) if p == cls])
                for cls in range(len(self._done))]
        slo_s = self.slo_s
        for done, bad, (when, latencies) in zip(self._done, self._bad,
                                                columns):
            done.extend(when)
            bad.extend(accumulate((latency > slo_s for latency in latencies),
                                  initial=bad.pop()))

    def note_fault(self, t_s: float) -> None:
        """Record one fault event (call in event order)."""
        self._faults.append(t_s)

    def recent_faults(self, now_s: float) -> int:
        """Fault events in the trailing window ending at ``now_s``."""
        faults = self._faults
        start = bisect_left(faults, now_s - self.window_s,
                            self._fault_cursor)
        self._fault_cursor = start
        return bisect_right(faults, now_s, start) - start

    def class_windows(self, index: int, now_s: float,
                      overdue_by_class: Sequence[int]
                      ) -> Tuple[BurnWindow, ...]:
        """One trailing window per priority class, ending at ``now_s``.

        ``overdue_by_class[i]`` is class ``i``'s count of admitted,
        unresolved requests already older than the SLO -- each is a
        violation the window has effectively observed even though it
        has no completion timestamp yet.  ``index`` labels the windows
        (a tick or sample counter).  The reference form: it bisects the
        retained columns in full and leaves the cursors alone.
        """
        start_s = now_s - self.window_s
        windows = []
        for done, bad, overdue in zip(self._done, self._bad,
                                      overdue_by_class):
            since = bisect_left(done, start_s)
            upto = bisect_right(done, now_s)
            late = int(overdue)
            windows.append(BurnWindow(
                index=index, start_s=start_s, end_s=now_s,
                n_requests=upto - since + late,
                n_violations=bad[upto] - bad[since] + late))
        return tuple(windows)

    def class_burns(self, now_s: float, overdue_by_class: Sequence[int],
                    budget: float) -> List[float]:
        """Per-class burn rates of :meth:`class_windows` at ``now_s``.

        Bitwise ``[w.burn_rate(budget) for w in class_windows(...)]``,
        without building the windows (the elastic loop's per-tick read,
        and the monitor's read between ticks), checking the budget once
        per read.
        """
        require_error_budget(budget)
        start_s = now_s - self.window_s
        cursors = self._cursor
        burns = []
        for cls, late in enumerate(overdue_by_class):
            done, bad = self._done[cls], self._bad[cls]
            start = bisect_left(done, start_s, cursors[cls])
            if start > _TRIM and 2 * start > len(done):
                del done[:start]
                del bad[:start]
                start = 0
            cursors[cls] = start
            # A live signal holds nothing past ``now_s``; a loaded
            # record does.
            upto = len(done) if not done or done[-1] <= now_s \
                else bisect_right(done, now_s, start)
            burns.append(unchecked_burn_rate(upto - start + late,
                                             bad[upto] - bad[start] + late,
                                             budget))
        return burns
