"""Policy-agnostic reward accounting.

Fig 5 plots "the total reward collected by the different scheduling
methods" — including FCFS, BinPacking, Random and Optimization, which
never look at a reward.  :class:`RewardMeter` observes any engine run
and evaluates a reward function once per scheduling instance on the
jobs the policy selected, so every method is scored by the identical
objective.
"""

from __future__ import annotations

from repro.core.rewards import RewardFunction
from repro.obs import trace as _trace
from repro.sim.engine import SchedulingView


class RewardMeter:
    """Accumulates the per-instance rewards of an arbitrary policy."""

    def __init__(self, reward_fn: RewardFunction) -> None:
        self.reward_fn = reward_fn
        self.total = 0.0

    def on_instance(self, view: SchedulingView) -> None:
        with _trace.span("agent.reward"):
            self.total += self.reward_fn(view.selected, view.waiting(),
                                         view.cluster, view.now)
