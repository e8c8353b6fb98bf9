"""Wait-queue management with dependency gating and window extraction.

The queue is kept in arrival order (FCFS order).  Jobs with unfinished
dependencies are *held* — hidden from scheduling until all parents have
executed, exactly as the Theta scheduler does (paper section IV-C).

The *window* at the front of the queue is the mechanism DRAS uses to
alleviate starvation: only the ``W`` oldest eligible jobs are visible to
the level-1 network, giving older jobs structurally higher priority
(paper section III-B).

Every mutator maintains four indexes beside the arrival-ordered list
(``WaitQueue.__init__``); with the sanitizer active it also ends by
recomputing them (:func:`repro.check.sanitize.check_queue_index`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from math import inf

from repro.check import sanitize as _san
from repro.sim.job import Job, JobState


class WaitQueue:
    """Arrival-ordered wait queue with dependency holding."""

    def __init__(self) -> None:
        #: eligible jobs in arrival order
        self._waiting: list[Job] = []
        #: submitted jobs blocked on dependencies, by id in submit order
        self._held: dict[int, Job] = {}
        #: ids of all finished jobs, for dependency resolution
        self._finished: set[int] = set()
        #: ids of jobs lost to faults (FAILED); their dependents can
        #: never become eligible
        self._dead: set[int] = set()
        #: size census: waiting jobs per size, and the smallest size
        #: (``inf`` when nothing waits), so ``free_nodes < min_size``
        #: says in O(1) that no waiting job fits; read-only for callers
        self._census: dict[int, int] = {}
        self.min_size: float = inf
        #: arrival keys: strictly ascending, parallel to ``_waiting``,
        #: so removal bisects instead of scanning; ``_key_of`` maps a
        #: waiting job's id to its key
        self._keys: list[int] = []
        self._key_of: dict[int, int] = {}
        #: each waiting job's size and walltime, parallel to
        #: ``_waiting``, for the backfill scan to test as arrays
        #: (``np.frombuffer``); ``array`` inserts and deletes are C
        #: memmoves, where NumPy arrays would need a slice shift
        self._sizes = array("q")
        self._walltimes = array("d")
        #: dependents map: unfinished dependency id -> the held jobs it
        #: blocks, so a completion touches only its own dependents;
        #: ``_open`` counts a held job's distinct unfinished dependencies
        #: (one that never finishes never releases)
        self._dependents: dict[int, list[Job]] = {}
        self._open: dict[int, int] = {}

    def _check(self, op: str, job: Job) -> None:
        """The sanitizer hook every mutator ends with."""
        if _san.sanitizer_enabled():
            _san.check_queue_index(self, f"{op}(job {job.job_id})")

    def _enqueue(self, job: Job, front: bool = False) -> None:
        """Make ``job`` eligible, at the tail or (``front``) the head."""
        keys = self._keys
        at = 0 if front else len(keys)
        key = (keys[0] - 1 if front else keys[-1] + 1) if keys else 0
        keys.insert(at, key)
        self._waiting.insert(at, job)
        self._key_of[job.job_id] = key
        size = job.size
        self._sizes.insert(at, size)
        self._walltimes.insert(at, job.walltime)
        self._census[size] = self._census.get(size, 0) + 1
        if size < self.min_size:
            self.min_size = size

    # -- submission / release ---------------------------------------------
    def submit(self, job: Job) -> bool:
        """Add a newly arrived job, holding it if dependencies are open.

        Returns ``False`` (without enqueueing) when a dependency has
        already FAILED — the job can never become eligible and the
        caller decides its fate (the engine abandons it).
        """
        if job.state not in (JobState.PENDING,):
            raise RuntimeError(f"job {job.job_id} resubmitted (state {job.state})")
        open_deps = set(job.dependencies)
        if not open_deps.isdisjoint(self._dead):
            self._dead.add(job.job_id)
            return False
        open_deps -= self._finished
        if open_deps:
            job.state = JobState.HELD
            self._held[job.job_id] = job
            self._open[job.job_id] = len(open_deps)
            for dep in open_deps:
                self._dependents.setdefault(dep, []).append(job)
        else:
            job.state = JobState.WAITING
            self._enqueue(job)
        self._check("submit", job)
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
        self._enqueue(job, front)
        self._check("requeue", job)

    def notify_finished(self, job: Job) -> None:
        """Record a completion and release any dependents it unblocks.

        Released jobs are appended in submit-time order so the queue
        remains sorted by effective arrival.
        """
        self._finished.add(job.job_id)
        dependents = self._dependents.pop(job.job_id, None)
        if dependents is None:
            return
        released = []
        for j in dependents:
            self._open[j.job_id] -= 1
            if not self._open[j.job_id]:
                del self._open[j.job_id], self._held[j.job_id]
                released.append(j)
        released.sort(key=lambda j: (j.submit_time, j.job_id))
        for j in released:
            j.state = JobState.WAITING
            self._enqueue(j)
        self._check("notify_finished", job)

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
        # every dead id, not only this one: a job ``submit`` refused is
        # dead too, and what was already held on it goes with the next
        # cascade.  Runs per fault-abandoned job (rare), never per event.
        frontier = [dep for dep in self._dead if dep in self._dependents]
        while frontier:
            for j in self._dependents.pop(frontier.pop(), ()):
                del self._open[j.job_id], self._held[j.job_id]
                for dep in set(j.dependencies):
                    others = self._dependents.get(dep)
                    if others is not None:
                        others[:] = [o for o in others if o is not j]
                        if not others:
                            del self._dependents[dep]
                self._dead.add(j.job_id)
                doomed.append(j)
                if j.job_id in self._dependents:
                    frontier.append(j.job_id)
        doomed.sort(key=lambda j: (j.submit_time, j.job_id))
        self._check("notify_failed", job)
        return doomed

    # -- scheduling access ---------------------------------------------------
    def _index_of(self, job: Job) -> int:
        """Position of ``job`` (this very object) in the queue, or -1."""
        key = self._key_of.get(job.job_id)
        if key is None:
            return -1
        i = bisect_left(self._keys, key)
        return i if self._waiting[i] is job else -1

    def remove(self, job: Job) -> None:
        """Remove a job that has been selected to start."""
        i = self._index_of(job)
        if i < 0:
            raise RuntimeError(f"job {job.job_id} is not waiting")
        del self._waiting[i], self._keys[i], self._key_of[job.job_id]
        del self._sizes[i], self._walltimes[i]
        size = job.size
        left = self._census[size] - 1
        if left:
            self._census[size] = left
        else:
            del self._census[size]
            if size == self.min_size:
                self.min_size = min(self._census, default=inf)
        self._check("remove", job)

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
        return list(self._held.values())

    def __len__(self) -> int:
        return len(self._waiting)

    @property
    def total_pending(self) -> int:
        """Waiting plus held jobs."""
        return len(self._waiting) + len(self._held)

    def __contains__(self, job: Job) -> bool:
        return self._index_of(job) >= 0

    def clear(self) -> None:
        """Drop all queued, held, finished, and failed bookkeeping."""
        for part in (self._waiting, self._held, self._finished, self._dead,
                     self._census, self._keys, self._key_of,
                     self._dependents, self._open):
            part.clear()
        del self._sizes[:], self._walltimes[:]
        self.min_size = inf
