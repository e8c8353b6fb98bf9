"""The hierarchical two-level decision loop shared by both DRAS agents.

One scheduling instance proceeds exactly as §III-B describes:

1. **Level 1** — the agent repeatedly selects one job from the window
   at the front of the wait queue.  If the job fits the available
   nodes it starts immediately (*ready job*); the first selected job
   that does not fit becomes the *reserved job* — nodes are reserved
   for it at the earliest expected availability — and the agent drops
   to level 2.
2. **Level 2** — the window is refilled with *backfill candidates*
   (jobs that fit the holes before the reservation without delaying
   it); the agent selects one at a time (*backfilled jobs*) until no
   candidate remains.

Both levels share the same network (trained jointly); after every
action a learning agent receives the reward of the scheduling
objective, and every ``update_every`` scheduling instances it updates
the network parameters from the collected observations and clears its
memory (§III-C).  Online operation keeps learning enabled, which is how
DRAS adapts to workload change without human intervention (§V-D).  The
Decima-PG baseline (:mod:`repro.core.decima`) keeps this cadence and
replaces the two levels with one.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import DRASConfig
from repro.core.rewards import RewardFunction, make_reward
from repro.core.state import StateEncoder
from repro.obs import trace as _trace
from repro.schedulers.base import BaseScheduler
from repro.sim.engine import SchedulingView
from repro.sim.job import Job


class HierarchicalAgent(BaseScheduler):
    """Base class implementing the two-level loop and training cadence.

    Subclasses implement :meth:`select` (choose one job from a window
    and remember what the update needs), :meth:`update` (one
    parameter update from the collected observations) and
    :meth:`learning_stats` (that update's signals, for the trainer's
    per-episode record).
    """

    name = "DRAS"

    def __init__(self, config: DRASConfig, reward: RewardFunction | None = None) -> None:
        self.config = config
        self.reward_fn: RewardFunction = (
            reward
            if reward is not None
            else make_reward(config.objective, **config.reward_kwargs)
        )
        self.encoder = StateEncoder(
            num_nodes=config.num_nodes,
            window=config.window,
            time_scale=config.time_scale,
        )
        self.rng = np.random.default_rng(config.seed)
        #: learning on/off.  Training and online adaptation keep it on;
        #: a frozen evaluation turns it off.
        self.learning = True
        self._instances_since_update = 0
        self.updates_done = 0

    # -- subclass interface -----------------------------------------------------
    def select(self, window: list[Job], view: SchedulingView, level: int) -> Job:
        """Choose one job from ``window`` and stash the transition."""
        raise NotImplementedError

    def update(self) -> None:
        """One parameter update from collected observations."""
        raise NotImplementedError

    def record_reward(self, reward: float) -> None:
        """Attach the post-action reward to the pending transition."""
        raise NotImplementedError

    def learning_stats(self) -> dict[str, float]:
        """The latest update's learning signals, by record field name."""
        raise NotImplementedError

    def episode_end(self) -> None:
        """Flush any pending learning state at the end of an episode."""
        if self.learning and self._has_observations():
            self.update()
            self.updates_done += 1
        self._instances_since_update = 0

    def _has_observations(self) -> bool:
        raise NotImplementedError

    # -- mode toggles ---------------------------------------------------------------
    def train(self) -> "HierarchicalAgent":
        """Training mode: record transitions and update parameters."""
        self.learning = True
        return self

    def eval(self, online_learning: bool = True) -> "HierarchicalAgent":
        """Evaluation mode.

        The paper's deployed agents continue adjusting their parameters
        during operation (§V-D), so ``online_learning`` defaults to
        True; pass False for a frozen-policy evaluation.
        """
        self.learning = online_learning
        return self

    # -- the two-level loop -----------------------------------------------------------
    def schedule(self, view: SchedulingView) -> None:
        """One scheduling instance: level-1 selection, then backfill.

        Level 1 starts (or reserves) window picks until a job does not
        fit; level 2 backfills behind the reservation (§III-A).  While
        learning, every selection's reward is attached to its
        transition; a frozen agent computes no reward.
        """
        # Level 1: immediate execution or reservation.
        while True:
            window = view.window(self.config.window)
            if not window:
                break
            job = self.select(window, view, level=1)
            fits = job.size <= view.free_nodes
            if fits:
                view.start(job)
            else:
                view.reserve(job)
            self._after_action(view)
            if not fits:
                break

        # Level 2: backfilling behind the reservation.  The learned
        # selection is the paper's contribution; ``learned_backfill=False``
        # degrades it to EASY's first-fit rule for ablation, which
        # records no transition and so takes no reward.
        if view.reservation is not None:
            while True:
                candidates = view.backfill_candidates()
                if not candidates:
                    break
                if self.config.learned_backfill:
                    window = candidates[: self.config.window]
                    job = self.select(window, view, level=2)
                    view.start(job)
                    self._after_action(view)
                else:
                    view.start(candidates[0])

        self._end_instance()

    def _after_action(self, view: SchedulingView) -> None:
        """While learning, attach the post-action reward to its transition."""
        if self.learning:
            with _trace.span("agent.reward"):
                reward = self.reward_fn(view.selected, view.waiting(),
                                        view.cluster, view.now)
            self.record_reward(reward)

    def _end_instance(self) -> None:
        self._instances_since_update += 1
        if (
            self.learning
            and self._instances_since_update >= self.config.update_every
            and self._has_observations()
        ):
            self.update()
            self.updates_done += 1
            self._instances_since_update = 0

    # -- engine hooks ------------------------------------------------------------------
    def on_simulation_end(self, engine) -> None:  # noqa: ANN001
        """Engine lifecycle hook: finalize the episode."""
        self.episode_end()
