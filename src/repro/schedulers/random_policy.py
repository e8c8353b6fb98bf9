"""Random scheduling baseline (paper section IV-A).

Randomly selects runnable jobs from the queue until no more fit.  DRAS
behaves like this policy at the very beginning of training (uniform
exploration), so DRAS beating Random demonstrates that learning is
actually improving the policy.
"""

from __future__ import annotations

import numpy as np

from repro.schedulers.base import BaseScheduler
from repro.sim.engine import SchedulingView


class RandomScheduler(BaseScheduler):
    """Uniform random runnable-job selection without reservations."""

    name = "Random"

    def __init__(self, seed: int | None = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def schedule(self, view: SchedulingView) -> None:
        while True:
            free = view.free_nodes
            # recomputing the runnable set after every start is the
            # algorithm: each start changes ``free``
            runnable = [j for j in view.waiting() if j.size <= free]
            if not runnable:
                return
            choice = runnable[int(self._rng.integers(len(runnable)))]
            view.start(choice)
