"""Wait-queue management with dependency gating and window extraction.

The queue is kept in arrival order (FCFS order).  Jobs with unfinished
dependencies are *held* — hidden from scheduling until all parents have
executed, exactly as the Theta scheduler does (paper section IV-C).

The *window* at the front of the queue is the mechanism DRAS uses to
alleviate starvation: only the ``W`` oldest eligible jobs are visible to
the level-1 network, giving older jobs structurally higher priority
(paper section III-B).
"""

from __future__ import annotations

from repro.sim.job import Job, JobState


class WaitQueue:
    """Arrival-ordered wait queue with dependency holding."""

    def __init__(self) -> None:
        #: eligible jobs in arrival order
        self._waiting: list[Job] = []
        #: submitted jobs blocked on dependencies
        self._held: list[Job] = []
        #: ids of all finished jobs, for dependency resolution
        self._finished: set[int] = set()
        #: ids of jobs lost to faults (FAILED); their dependents can
        #: never become eligible
        self._dead: set[int] = set()

    # -- submission / release ---------------------------------------------
    def submit(self, job: Job) -> bool:
        """Add a newly arrived job, holding it if dependencies are open.

        Returns ``False`` (without enqueueing) when a dependency has
        already FAILED — the job can never become eligible and the
        caller decides its fate (the engine abandons it).
        """
        if job.state not in (JobState.PENDING,):
            raise RuntimeError(f"job {job.job_id} resubmitted (state {job.state})")
        if self._deps_dead(job):
            self._dead.add(job.job_id)
            return False
        if self._deps_met(job):
            job.state = JobState.WAITING
            self._waiting.append(job)
        else:
            job.state = JobState.HELD
            self._held.append(job)
        return True

    def requeue(self, job: Job, front: bool) -> None:
        """Return a fault-killed job (already back in WAITING) to the queue.

        ``front`` inserts it at the head (it keeps its accumulated
        seniority and runs again as soon as possible); otherwise it
        joins the tail like a fresh arrival.
        """
        if job.state is not JobState.WAITING:
            raise RuntimeError(
                f"job {job.job_id} cannot be requeued from state {job.state}"
            )
        if front:
            self._waiting.insert(0, job)
        else:
            self._waiting.append(job)

    def notify_finished(self, job: Job) -> None:
        """Record a completion and release any dependents it unblocks.

        Released jobs are appended in submit-time order so the queue
        remains sorted by effective arrival.
        """
        self._finished.add(job.job_id)
        released = [j for j in self._held if self._deps_met(j)]
        if not released:
            return
        self._held = [j for j in self._held if not self._deps_met(j)]
        released.sort(key=lambda j: (j.submit_time, j.job_id))
        for j in released:
            j.state = JobState.WAITING
            self._waiting.append(j)

    def notify_failed(self, job: Job) -> list[Job]:
        """Record a fault-abandoned job and cascade to doomed dependents.

        A held job whose dependency FAILED can never become eligible;
        it (and, transitively, its own dependents) are removed from the
        held list and returned in ``(submit_time, job_id)`` order so the
        engine can mark them abandoned and account for them.  Returns an
        empty list when nothing depended on the failed job.
        """
        self._dead.add(job.job_id)
        doomed: list[Job] = []
        # the per-round rebuilds below run only when a job is abandoned
        # by a fault (rare by construction), never per event
        while True:
            newly = [j for j in self._held if self._deps_dead(j)]
            if not newly:
                break
            self._held = [j for j in self._held if not self._deps_dead(j)]
            for j in newly:
                self._dead.add(j.job_id)
            doomed.extend(newly)
        doomed.sort(key=lambda j: (j.submit_time, j.job_id))
        return doomed

    def _deps_met(self, job: Job) -> bool:
        return all(dep in self._finished for dep in job.dependencies)

    def _deps_dead(self, job: Job) -> bool:
        return any(dep in self._dead for dep in job.dependencies)

    # -- scheduling access ---------------------------------------------------
    def remove(self, job: Job) -> None:
        """Remove a job that has been selected to start."""
        # identity scan: ``list.remove`` would compare dataclass fields
        # pairwise down the queue, and the engine only ever removes the
        # exact object it was handed
        waiting = self._waiting
        for i, queued in enumerate(waiting):
            if queued is job:
                del waiting[i]
                return
        raise RuntimeError(f"job {job.job_id} is not waiting")

    def window(self, size: int) -> list[Job]:
        """The ``size`` oldest eligible jobs (the paper's window)."""
        if size <= 0:
            raise ValueError(f"window size must be positive, got {size}")
        return self._waiting[:size]

    def peek_waiting(self) -> list[Job]:
        """The live waiting list (read-only; NOT safe across mutation).

        Engine-internal fast path: callers must not mutate it and must
        not hold it across :meth:`remove`/:meth:`submit`.  Policies go
        through the copying :attr:`waiting` instead.
        """
        return self._waiting

    @property
    def waiting(self) -> list[Job]:
        """All eligible jobs in arrival order (a copy)."""
        # the copy is the safety contract: policies iterate this while
        # starting jobs, which mutates the underlying queue
        return list(self._waiting)

    @property
    def held(self) -> list[Job]:
        """Jobs whose dependencies are not yet satisfied (a copy)."""
        return list(self._held)

    def __len__(self) -> int:
        return len(self._waiting)

    @property
    def total_pending(self) -> int:
        """Waiting plus held jobs."""
        return len(self._waiting) + len(self._held)

    def __contains__(self, job: Job) -> bool:
        return job in self._waiting

    def clear(self) -> None:
        """Drop all queued, held, finished, and failed bookkeeping."""
        self._waiting.clear()
        self._held.clear()
        self._finished.clear()
        self._dead.clear()
