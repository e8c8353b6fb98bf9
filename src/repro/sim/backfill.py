"""EASY-backfilling machinery: reservations, shadow time, candidates.

When the job at the head of the scheduling order does not fit, EASY
backfilling (Mu'alem & Feitelson) reserves resources for it at the
earliest expected availability — the *shadow time* — and lets smaller
jobs jump ahead as long as they cannot delay that reservation.  A job
may backfill if either

* it finishes (by its walltime estimate) before the shadow time, or
* it uses only the *extra nodes*: nodes that will still be free at the
  shadow time after the reserved job takes its share.

DRAS keeps the same safety rule but replaces the first-fit candidate
choice with a learned level-2 network (paper section III-B).  This
module computes the reservation and enumerates the legal candidates so
that every policy — heuristic or learned — shares identical backfilling
semantics.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.sim.cluster import Cluster
from repro.sim.job import Job
from repro.sim.queue import WaitQueue

#: Jobs at the front of the live queue that
#: :meth:`BackfillPlanner.first_candidate` tests one at a time before it
#: tests the rest as arrays, whose pass has a fixed cost of a few µs.
#: ``benchmarks/perf/run.py`` ``events_per_s`` (2-vCPU host, seed 0,
#: median of 3) at a head of 0 / 16 / 32 / 64 / 128 / 256: ``theta_easy``
#: 34.0k / 34.3k / 34.6k / 34.4k / 33.9k / 33.8k, ``cori_easy`` 30.9k /
#: 31.2k / 35.5k / 36.1k / 36.5k / 36.3k — a plateau, not a knob.
_HEAD = 64


@dataclass(frozen=True, slots=True)
class Reservation:
    """A resource reservation for a blocked job."""

    job_id: int
    size: int
    #: earliest expected time the reserved job can start
    shadow_time: float
    #: nodes free at the shadow time beyond what the reserved job needs
    extra_nodes: int

    def allows(self, job: Job, now: float, free_nodes: int) -> bool:
        """Whether ``job`` may backfill without delaying this reservation."""
        if job.size > free_nodes:
            return False
        if now + job.walltime <= self.shadow_time + 1e-9:
            return True
        return job.size <= self.extra_nodes


class BackfillPlanner:
    """Computes reservations and legal backfill candidates for a cluster.

    ``queue`` (the engine's) lends :meth:`first_candidate` its arrays.
    """

    def __init__(self, cluster: Cluster, queue: WaitQueue | None = None) -> None:
        self._cluster = cluster
        self._queue = queue

    def reserve(self, job: Job, now: float) -> Reservation:
        """Build a reservation for a job that does not currently fit."""
        shadow, free_at_shadow = self._cluster.reservation_point(job.size, now)
        extra = max(0, free_at_shadow - job.size)
        return Reservation(
            job_id=job.job_id,
            size=job.size,
            shadow_time=shadow,
            extra_nodes=extra,
        )

    def candidates(
        self, jobs: list[Job], reservation: Reservation, now: float
    ) -> list[Job]:
        """Jobs from ``jobs`` that may legally backfill right now.

        Order of the input is preserved, so a first-fit policy can simply
        take the first element while DRAS's level-2 network chooses
        freely among them.
        """
        # `allows` inlined (hot path: one scan per free-choice decision);
        # the arithmetic matches Reservation.allows exactly — only the
        # loop-invariant `shadow_time + 1e-9` is hoisted
        free = self._cluster.available_nodes
        reserved_id = reservation.job_id
        cutoff = reservation.shadow_time + 1e-9
        extra = reservation.extra_nodes
        return [
            job
            for job in jobs
            if job.job_id != reserved_id
            and job.size <= free
            and (now + job.walltime <= cutoff or job.size <= extra)
        ]

    def first_candidate(
        self, jobs: list[Job], reservation: Reservation, now: float
    ) -> Job | None:
        """The first job that may legally backfill, or ``None``.

        First-fit policies call this once per started job; scanning to
        the first hit avoids materialising the full candidate list that
        :meth:`candidates` builds for free-choice policies.  When
        ``jobs`` is the planner's queue's live list, every job past the
        first ``_HEAD`` is tested at once over the queue's size and
        walltime arrays: element-wise float64 ``+`` and ``<=`` round as
        the loop's scalars do, so the answer is the same job.
        """
        # `allows` inlined as in :meth:`candidates`, short-circuiting on
        # the first hit; at Theta scale a call is offered ~1,140 jobs and
        # tests ~330 of them, so the per-job method call is measurable
        free = self._cluster.available_nodes
        reserved_id = reservation.job_id
        cutoff = reservation.shadow_time + 1e-9
        extra = reservation.extra_nodes
        queue = self._queue
        live = queue is not None and jobs is queue._waiting \
            and len(jobs) > _HEAD
        for job in jobs[:_HEAD] if live else jobs:
            if job.job_id != reserved_id:
                size = job.size
                if size <= free and (now + job.walltime <= cutoff
                                     or size <= extra):
                    return job
        if not live:
            return None
        sizes = np.frombuffer(queue._sizes, np.int64)[_HEAD:]
        fits = now + np.frombuffer(queue._walltimes)[_HEAD:] <= cutoff
        if extra >= queue.min_size:   # else no job fits the extra nodes
            fits |= sizes <= extra
        fits &= sizes <= free
        key = queue._key_of.get(reserved_id)
        if key is not None and (at := bisect_left(queue._keys, key)) >= _HEAD:
            fits[at - _HEAD] = False
        hit = int(fits.argmax())
        return jobs[_HEAD + hit] if fits[hit] else None
