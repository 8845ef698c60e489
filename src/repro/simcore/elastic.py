"""Per-tick overdue accounting for the elastic (autoscaling) loop.

The elastic loop is inherently sequential -- the burn-rate controller's
feedback at every tick depends on everything admitted so far -- so it
cannot batch-evaluate whole shard timelines the way the static
:class:`~repro.simcore.vectorized.VectorizedScheduler` does.  Its
per-tick question "how many admitted requests are already past the
SLO?" would cost a scan of every open request per control tick; the
:class:`OverdueTracker` below answers it in amortized ``O(1)`` per
admission, with the exact float comparisons the scan would make (a
brute-force oracle in ``tests/simcore`` pins the equivalence).
"""

from __future__ import annotations

import math
from typing import Dict, List

__all__ = ["OverdueTracker"]


class OverdueTracker:
    """Amortized-O(1) per-class count of admitted requests past the SLO.

    Answers "how many unresolved requests are older than the SLO right
    now?" -- a full scan of the open requests at every control tick --
    from a monotone cursor instead: admissions arrive in time order
    (they are event-loop timestamps), control ticks query at
    non-decreasing ``now``, and ``now - arrival > slo`` is monotone in
    ``now`` for a fixed arrival -- so once a request crosses the
    threshold it stays crossed until it resolves, and the cursor never
    backs up.

    Exactness matters more than speed: :meth:`counts` applies the
    *identical* float comparison (``now_s - arrival_s > slo_s``) the
    scan would, in admission order, so it counts the same requests at
    every tick.
    """

    __slots__ = ("_slo_s", "_n_classes", "_arrivals", "_classes",
                 "_resolved", "_pos", "_cursor", "_counts")

    def __init__(self, slo_s: float, n_classes: int):
        if not (math.isfinite(slo_s) and slo_s > 0):
            raise ValueError(
                f"slo_s must be positive and finite, got {slo_s!r}")
        if n_classes < 1:
            raise ValueError(
                f"n_classes must be >= 1, got {n_classes!r}")
        self._slo_s = slo_s
        self._n_classes = n_classes
        self._arrivals: List[float] = []
        self._classes: List[int] = []
        self._resolved: List[bool] = []
        self._pos: Dict[int, int] = {}
        self._cursor = 0
        self._counts = [0] * n_classes

    def admit(self, req_id: int, arrival_s: float, class_idx: int) -> None:
        """Record one admitted request (call in admission order)."""
        self._pos[req_id] = len(self._arrivals)
        self._arrivals.append(arrival_s)
        self._classes.append(class_idx)
        self._resolved.append(False)

    def resolve(self, req_id: int) -> None:
        """Mark one request resolved (idempotent for unknown ids)."""
        index = self._pos.pop(req_id, None)
        if index is None:
            return
        self._resolved[index] = True
        if index < self._cursor:
            # Already counted overdue; it no longer is.
            self._counts[self._classes[index]] -= 1

    def counts(self, now_s: float) -> List[int]:
        """Per-class overdue counts at ``now_s`` (non-decreasing calls)."""
        arrivals = self._arrivals
        cursor = self._cursor
        end = len(arrivals)
        slo = self._slo_s
        while cursor < end and now_s - arrivals[cursor] > slo:
            if not self._resolved[cursor]:
                self._counts[self._classes[cursor]] += 1
            cursor += 1
        self._cursor = cursor
        return list(self._counts)
