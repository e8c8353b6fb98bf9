"""BinPacking heuristic (paper section IV-A).

Iteratively allocates the largest runnable job — the one with the
biggest size that still fits in the currently available nodes — until
the system cannot accommodate any further job.  There is no reservation
and no backfilling, which is precisely why the paper finds it starves
large jobs (Fig. 7).
"""

from __future__ import annotations

from repro.schedulers.base import BaseScheduler
from repro.sim.engine import SchedulingView


class BinPacking(BaseScheduler):
    """Largest-runnable-job-first packing without reservations."""

    name = "BinPacking"

    def schedule(self, view: SchedulingView) -> None:
        while True:
            free = view.free_nodes
            # recomputing the runnable set after every start is the
            # algorithm: each start changes ``free``
            runnable = [j for j in view.waiting() if j.size <= free]
            if not runnable:
                return
            # Largest first; ties broken by arrival order (stable max).
            best = max(runnable, key=lambda j: j.size)
            view.start(best)
