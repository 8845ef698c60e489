"""The SLO burn-rate autoscaling controller: verdicts only.

The elastic loop reads each tick's per-class burn from the
:class:`~repro.monitor.signal.BurnSignal` it owns -- completions in the
trailing window judged against the SLO, plus admitted requests already
past it counted as violations -- and passes the *worst* class's burn
here, so a starving background class can ask for capacity while the
interactive class is green.  Burn at or above ``scale_up_burn`` asks
for more capacity; burn at or below ``scale_down_burn`` with the pool
quiet asks for less.  Verdicts honor the pool bounds and a cooldown so
the controller cannot thrash.  Fault pressure (recent deaths and stall
onsets from the signal, plus devices running degraded) forces the
scale-up branch and vetoes scale-down, and :meth:`decide_failover`
answers a shard death at once: failover bypasses the cooldown, because
waiting out a thrash guard while capacity is gone only deepens the
burn.  The only state is the cooldown clock, fed event-loop
timestamps, so runs stay bit-deterministic.
"""

from __future__ import annotations

from typing import Optional

from .policy import AutoscalePolicy

__all__ = ["BurnRateController"]

#: Controller verdicts.
SCALE_UP = "up"
SCALE_DOWN = "down"


class BurnRateController:
    """Attach/detach verdicts from burn readings, with a cooldown."""

    def __init__(self, policy: AutoscalePolicy):
        self.policy = policy
        self._last_action_s = -float("inf")

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
