"""Priority-rule schedulers: order-by-key with EASY backfilling.

A family of classic batch-scheduling heuristics sharing one loop: sort
the queue by a priority key, run from the head, reserve for the first
blocked job, first-fit backfill (in key order) behind the reservation.
FCFS is the ``arrival`` instance of this family; the others are common
comparators in the scheduling literature and useful extension points
for site policies.
"""

from __future__ import annotations

from typing import Callable

from repro.schedulers.base import BaseScheduler
from repro.sim.engine import SchedulingView
from repro.sim.job import Job

KeyFn = Callable[[Job, float], float]


class RuleScheduler(BaseScheduler):
    """EASY scheduling under an arbitrary job-priority key.

    ``key(job, now)`` returns a sort key — *smaller runs first*.  Ties
    break by arrival.
    """

    def __init__(self, key: KeyFn, name: str) -> None:
        self._key = key
        self.name = name

    def _ordered(self, view: SchedulingView) -> list[Job]:
        now = view.now
        return sorted(
            view.waiting(),
            key=lambda j: (self._key(j, now), j.submit_time, j.job_id),
        )

    def schedule(self, view: SchedulingView) -> None:
        while True:
            order = self._ordered(view)
            if not order:
                return
            head = order[0]
            if head.size <= view.free_nodes:
                view.start(head)
                continue
            view.reserve(head)
            break
        while True:
            candidates = view.backfill_candidates(pool=self._ordered(view))
            if not candidates:
                return
            view.start(candidates[0])


def sjf() -> RuleScheduler:
    """Shortest job first (by walltime estimate): minimizes mean wait."""
    return RuleScheduler(lambda j, now: j.walltime, "SJF")


def ljf() -> RuleScheduler:
    """Largest job first (by node count): capability-style priority."""
    return RuleScheduler(lambda j, now: -float(j.size), "LJF")


def smallest_area_first() -> RuleScheduler:
    """Smallest requested area (nodes x walltime) first."""
    return RuleScheduler(lambda j, now: j.size * j.walltime, "SAF")


def f1_wfp() -> RuleScheduler:
    """WFP-style aging rule: ``-(wait / walltime)^3 * size``.

    Jobs gain priority polynomially with their normalized wait, scaled
    by size — a starvation-aware compromise between FCFS and SJF (cf.
    the WFP3 rule from the batch-scheduling literature, also used as a
    candidate policy by RLScheduler).
    """

    def key(j: Job, now: float) -> float:
        wait = j.queued_time(now)
        return -((wait / max(j.walltime, 1.0)) ** 3.0) * j.size

    return RuleScheduler(key, "WFP3")


def unicef() -> RuleScheduler:
    """UNICEF-style rule: ``-wait / (log2(size) * walltime)``-ish.

    Favors small-short jobs but ages with wait (cf. the UNI rule from
    the batch-scheduling literature).
    """
    import math

    def key(j: Job, now: float) -> float:
        wait = j.queued_time(now)
        return -wait / (math.log2(j.size + 1.0) * max(j.walltime, 1.0))

    return RuleScheduler(key, "UNICEF")
