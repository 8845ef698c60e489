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
from typing import Any, Dict, List

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
    backs up.  The crossed requests are a prefix of the admissions, so
    the last read counted a request exactly when it was still open and
    ``read_s - arrival > slo``.

    Exactness matters more than speed: :meth:`counts` applies the
    *identical* float comparison (``now_s - arrival_s > slo_s``) the
    scan would, in admission order, so it counts the same requests at
    every tick.

    A standalone tracker is fed per request through :meth:`admit` and
    :meth:`resolve`.  One built by :meth:`sharing` reads a driver's own
    columns instead, so the driver pays no call per request: it appends
    each admitted id to :attr:`admitted`, and at a resolution calls
    :meth:`settle` only for a request the last read counted.
    """

    __slots__ = ("slo_s", "admitted", "read_s", "_arrival", "_class",
                 "_resolved", "_cursor", "_counts")

    def __init__(self, slo_s: float, n_classes: int):
        if not (math.isfinite(slo_s) and slo_s > 0):
            raise ValueError(
                f"slo_s must be positive and finite, got {slo_s!r}")
        if n_classes < 1:
            raise ValueError(
                f"n_classes must be >= 1, got {n_classes!r}")
        self.slo_s = slo_s
        #: Admitted request ids, in admission order.
        self.admitted: List[int] = []
        #: Time of the last :meth:`counts` read.
        self.read_s = -math.inf
        self._arrival: Dict[int, float] = {}
        self._class: Dict[int, int] = {}
        #: Resolved ``req_id`` -> anything (a driver's done-time column).
        self._resolved: Dict[int, Any] = {}
        self._cursor = 0
        self._counts = [0] * n_classes

    @classmethod
    def sharing(cls, slo_s: float, n_classes: int,
                arrival_s: Dict[int, float], classes: Dict[int, int],
                resolved: Dict[int, Any]) -> "OverdueTracker":
        """A tracker over a driver's ``req_id`` -> arrival, -> class
        and -> resolution columns, each filled before the request's id
        is appended to :attr:`admitted` or settled."""
        tracker = cls(slo_s, n_classes)
        tracker._arrival = arrival_s
        tracker._class = classes
        tracker._resolved = resolved
        return tracker

    def admit(self, req_id: int, arrival_s: float, class_idx: int) -> None:
        """Record one admitted request (call in admission order)."""
        self._arrival[req_id] = arrival_s
        self._class[req_id] = class_idx
        self.admitted.append(req_id)

    def resolve(self, req_id: int) -> None:
        """Mark one request resolved (idempotent for unknown ids)."""
        if req_id in self._arrival and req_id not in self._resolved:
            self._resolved[req_id] = True
            self.settle(req_id)

    def settle(self, req_id: int) -> None:
        """Stop counting a request that just resolved, if the last read
        counted it."""
        if self.read_s - self._arrival[req_id] > self.slo_s:
            self._counts[self._class[req_id]] -= 1

    def counts(self, now_s: float) -> List[int]:
        """Per-class overdue counts at ``now_s`` (non-decreasing calls)."""
        admitted, arrival = self.admitted, self._arrival
        resolved, classes, counts = self._resolved, self._class, self._counts
        cursor = self._cursor
        end = len(admitted)
        slo = self.slo_s
        while cursor < end:
            req_id = admitted[cursor]
            if not now_s - arrival[req_id] > slo:
                break
            if req_id not in resolved:
                counts[classes[req_id]] += 1
            cursor += 1
        self._cursor = cursor
        self.read_s = now_s
        return list(counts)
