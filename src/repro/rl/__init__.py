"""Training infrastructure (paper section III-C).

* :class:`RewardMeter` — an engine observer that accumulates the
  scheduling reward of *any* policy, learned or heuristic, enabling the
  Fig 5 learning-curve comparison;
* :class:`Trainer` — episodic training: one jobset per episode, a
  validation run (and, with ``checkpoint_path``, the agent file) after
  each, and convergence monitoring;
* :mod:`repro.rl.curriculum` — the three-phase curriculum and the
  ordering comparison of Fig 4.
"""

from repro.rl.meter import RewardMeter
from repro.rl.trainer import EpisodeStats, Trainer, TrainingHistory
from repro.rl.curriculum import compare_phase_orders, train_with_curriculum

__all__ = [
    "EpisodeStats",
    "RewardMeter",
    "Trainer",
    "TrainingHistory",
    "compare_phase_orders",
    "train_with_curriculum",
]
