"""The SLO burn-rate autoscaling controller.

At every control tick the controller measures the trailing window's
error-budget burn -- the same :class:`~repro.telemetry.metrics.BurnWindow`
arithmetic the post-run telemetry pipeline reports, evaluated online:
requests that *completed* in the window count as satisfied or violating
by their TTI against the SLO, and admitted requests still pending past
the SLO deadline are counted as violations-in-progress (they cannot
finish in budget anymore).  Burn at or above ``scale_up_burn`` asks for
more capacity; burn at or below ``scale_down_burn`` with the pool quiet
asks for less.  Decisions honor the pool bounds and a cooldown so the
controller cannot thrash.

The window bookkeeping itself lives in the shared
:class:`~repro.monitor.signal.BurnSignal`: the controller feeds a live
instance in event order and the monitor's series builder replays an
identical one post-hoc, so the autoscaler and the observatory provably
see one signal (the elastic loop records the per-class burns on every
tick action, and the differential suite pins the monitor's samples to
them bit-for-bit).

The controller tracks one burn window **per priority class** (a tick
reads their burns through :meth:`class_burns`) and the elastic loop
scales on the *worst* class, so a starving background class asks for
capacity even while the interactive class is green.  Fault events
(shard deaths, sustained stalls) feed in through :meth:`note_fault` as
violation pressure: a non-zero ``fault_pressure`` at :meth:`decide`
forces the scale-up branch and vetoes scale-down, and
:meth:`decide_failover` answers a shard death immediately -- failover
replacement bypasses the cooldown, because waiting out a thrash guard
while capacity is already gone only deepens the burn.

The controller is plain sequential state -- deques of completions and
a couple of floats -- so the simulation stays bit-deterministic: every
input it sees is an event-loop timestamp.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ..monitor.signal import BurnSignal
from .policy import AutoscalePolicy

__all__ = ["BurnRateController"]

#: Controller verdicts.
SCALE_UP = "up"
SCALE_DOWN = "down"


class BurnRateController:
    """Trailing-window burn-rate measurement + attach/detach verdicts."""

    def __init__(self, policy: AutoscalePolicy, slo_s: float,
                 n_classes: int = 1):
        if not (math.isfinite(slo_s) and slo_s > 0):
            raise ValueError(
                f"slo_s must be positive and finite, got {slo_s!r}")
        if n_classes < 1:
            raise ValueError(
                f"n_classes must be >= 1, got {n_classes!r}")
        self.policy = policy
        self.slo_s = slo_s
        #: The shared trailing-window signal (monitor replays a twin).
        self.signal = BurnSignal(
            policy.control_interval_s, slo_s, n_classes)
        self._last_action_s = -float("inf")

    def note_completion(self, done_s: float, tti_latency_s: float,
                        priority: int = 0) -> None:
        """Record one resolved request (call in completion order)."""
        self.signal.note_completion(done_s, tti_latency_s, priority)

    def note_fault(self, t_s: float) -> None:
        """Record one fault event (call in event order).

        Shard deaths and stall onsets land here; each contributes
        violation pressure for one trailing window, forcing the
        scale-up branch at the next tick even before queue growth has
        shown up as SLO burn.
        """
        self.signal.note_fault(t_s)

    def recent_faults(self) -> int:
        """Fault events still inside the last-advanced window."""
        return self.signal.recent_faults()

    def class_burns(self, now_s: float,
                    overdue_by_class: Sequence[int]) -> List[float]:
        """Per-class burn rates of the trailing control window.

        ``overdue_by_class[i]`` is class ``i``'s count of admitted,
        unresolved requests already older than the SLO -- each is a
        violation the window has effectively observed even though it
        has no completion timestamp yet.  Bitwise each
        :meth:`~repro.monitor.signal.BurnSignal.class_windows` window's
        burn rate against the policy's error budget, read from the
        signal's running counts (one tick costs ``O(classes)``, however
        many completions the window holds).
        """
        return self.signal.class_burns(now_s, overdue_by_class,
                                       self.policy.error_budget)

    def decide(self, now_s: float, burn: float, n_serving: int,
               n_warming: int, fault_pressure: int = 0) -> Optional[str]:
        """One scaling verdict for this tick (or ``None`` to hold).

        Scale-up is considered before scale-down, pool bounds count
        warming slots as already-committed capacity, and the cooldown
        clock restarts on every verdict.  ``fault_pressure`` (recent
        fault events plus currently-degraded devices) forces the
        scale-up branch and vetoes scale-down: a stalling pool must not
        shrink, however green the trailing burn looks.
        """
        policy = self.policy
        if now_s - self._last_action_s < policy.cooldown_s:
            return None
        committed = n_serving + n_warming
        if (burn >= policy.scale_up_burn or fault_pressure > 0) \
                and committed < policy.max_shards:
            self._last_action_s = now_s
            return SCALE_UP
        if burn <= policy.scale_down_burn and n_warming == 0 \
                and n_serving > policy.min_shards \
                and fault_pressure == 0:
            self._last_action_s = now_s
            return SCALE_DOWN
        return None

    def decide_failover(self, now_s: float, n_serving: int,
                        n_warming: int) -> bool:
        """Whether a shard death should trigger an immediate attach.

        Failover replacement **bypasses the cooldown**: the death just
        removed real capacity, so waiting out the thrash guard only
        converts the loss into SLO burn.  The verdict still counts as
        an action (the cooldown clock restarts) so the tick loop does
        not pile a second attach on top of the replacement.
        """
        committed = n_serving + n_warming
        if committed < self.policy.max_shards:
            self._last_action_s = now_s
            return True
        return False
