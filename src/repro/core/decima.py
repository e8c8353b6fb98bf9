"""Decima-PG: the flat reinforcement-learning baseline (paper §IV-A).

Decima (Mao et al., SIGCOMM'19) targets DAG-structured data-processing
jobs and is not directly applicable to rigid HPC jobs, so the paper
evaluates a *modified* Decima: the graph neural network is dropped and
DRAS's state representation is used instead.  The result is DRAS-PG
**without** the hierarchical structure — no resource reservation, no
backfilling.  It therefore serves as the ablation baseline isolating
the benefit of DRAS's two-level design, and is written as exactly that:
:class:`~repro.core.dras_pg.DRASPG` with its own one-level
:meth:`DecimaPG.schedule`, inheriting the network, learner, update
cadence and persistence.

At each scheduling instance the agent repeatedly picks one *runnable*
job (jobs larger than the free node count are masked out) until no
waiting job fits.  Large jobs only run when enough nodes happen to be
free simultaneously — which is exactly why the paper observes severe
starvation of large jobs under this policy (Fig. 7).
"""

from __future__ import annotations

import numpy as np

from repro.core.dras_pg import DRASPG
from repro.sim.engine import SchedulingView


class DecimaPG(DRASPG):
    """DRAS-PG without level 2: runnable picks only, no reservation."""

    name = "Decima-PG"

    def schedule(self, view: SchedulingView) -> None:
        """One flat scheduling instance: start runnable window picks.

        Only jobs that fit the free nodes are valid actions (§IV-B);
        the instance ends when no waiting job in the window fits.
        """
        while True:
            window = view.window(self.config.window)
            runnable = np.zeros(self.config.window, dtype=bool)
            free = view.free_nodes
            runnable[:len(window)] = [job.size <= free for job in window]
            if not runnable.any():
                break
            action = self.core.act(
                window, view, record=self.learning, extra_mask=runnable
            )
            view.start(window[action])
            self._after_action(view)
        self._end_instance()
