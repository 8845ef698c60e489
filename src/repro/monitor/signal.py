"""The shared trailing-window SLO burn signal.

This is the bookkeeping the autoscaler's
:class:`~repro.scale.controller.BurnRateController` used to keep as
private state, extracted so the controller and the monitor's series
builder provably read **one signal**: the controller owns a live
instance fed in event order during the run, and the monitor replays an
identical instance post-hoc from the causal record.  The differential
suite pins that the burn values the monitor samples at control ticks
are bit-identical to the ones the controller acted on (the elastic
loop records them on each tick action).

State is per-class deques of ``(completion time, violated)`` with a
running violation count per class, plus a deque of fault timestamps;
a window reading costs ``O(classes)`` (after the amortized deque
trim), answered with the same
:class:`~repro.telemetry.metrics.BurnWindow` arithmetic the post-run
telemetry pipeline reports.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, Sequence, Tuple

from ..telemetry.metrics import BurnWindow, window_burn_rate

__all__ = ["BurnSignal"]


class BurnSignal:
    """Trailing-window completion/violation/fault bookkeeping.

    ``window_s`` is the trailing-window width (the controller passes
    its control interval), ``slo_s`` the latency objective that
    classifies a completion as violating, ``n_classes`` the number of
    priority classes tracked independently.
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
        self.n_classes = n_classes
        #: Per-class (completion time, violated) in completion order.
        self._completions: List[Deque[Tuple[float, bool]]] = [
            deque() for _ in range(n_classes)]
        #: Per-class count of violating entries in ``_completions``.
        self._violations = [0] * n_classes
        #: Fault-event timestamps (deaths, stall onsets) in event order.
        self._faults: Deque[float] = deque()

    def note_completion(self, done_s: float, tti_latency_s: float,
                        priority: int = 0) -> None:
        """Record one resolved request (call in completion order)."""
        violated = tti_latency_s > self.slo_s
        self._completions[priority].append((done_s, violated))
        if violated:
            self._violations[priority] += 1

    def note_fault(self, t_s: float) -> None:
        """Record one fault event (call in event order)."""
        self._faults.append(t_s)

    def advance(self, start_s: float) -> None:
        """Drop completions and faults older than ``start_s``."""
        violations = self._violations
        for cls, completions in enumerate(self._completions):
            while completions and completions[0][0] < start_s:
                if completions.popleft()[1]:
                    violations[cls] -= 1
        while self._faults and self._faults[0] < start_s:
            self._faults.popleft()

    def recent_faults(self) -> int:
        """Fault events still inside the last-advanced window."""
        return len(self._faults)

    def class_windows(self, index: int, now_s: float,
                      overdue_by_class: Sequence[int]
                      ) -> Tuple[BurnWindow, ...]:
        """One trailing window per priority class, ending at ``now_s``.

        ``overdue_by_class[i]`` is class ``i``'s count of admitted,
        unresolved requests already older than the SLO -- each is a
        violation the window has effectively observed even though it
        has no completion timestamp yet.  The caller supplies the
        shared window ``index`` (the controller's tick counter; the
        monitor's sample counter on replay).
        """
        start_s = now_s - self.window_s
        self.advance(start_s)
        return tuple(
            BurnWindow(index=index, start_s=start_s, end_s=now_s,
                       n_requests=n_requests, n_violations=n_violations)
            for n_requests, n_violations in self._counts(overdue_by_class))

    def class_burns(self, now_s: float, overdue_by_class: Sequence[int],
                    budget: float) -> List[float]:
        """Per-class burn rates of :meth:`class_windows` at ``now_s``.

        Bitwise ``[w.burn_rate(budget) for w in class_windows(...)]``,
        read straight from the running counts without building the
        windows (the per-tick path of the controller and the monitor).
        """
        self.advance(now_s - self.window_s)
        burns: List[float] = []
        for completions, violations, overdue in zip(
                self._completions, self._violations, overdue_by_class):
            overdue = int(overdue)
            burns.append(window_burn_rate(len(completions) + overdue,
                                          violations + overdue, budget))
        return burns

    def _counts(self, overdue_by_class: Sequence[int]
                ) -> List[Tuple[int, int]]:
        """Per-class ``(n_requests, n_violations)`` of the current
        window, each overdue request counted as a violation."""
        counts = []
        for cls, completions in enumerate(self._completions):
            overdue = int(overdue_by_class[cls])
            counts.append((len(completions) + overdue,
                           self._violations[cls] + overdue))
        return counts
