"""The rigid-job model used throughout the reproduction.

Typical HPC jobs are *rigid*: the number of nodes is fixed for the whole
execution (paper section II-A).  A user submits a job with a size
``n_i`` (nodes) and a walltime estimate ``t_i``; the estimate is an
upper bound — the scheduler kills any job whose actual runtime exceeds
it, so the effective runtime is ``min(actual, estimate)``.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from math import isfinite


class JobState(enum.Enum):
    """Lifecycle state of a job inside the simulator."""

    PENDING = "pending"      #: known to the trace, not yet submitted
    HELD = "held"            #: submitted but blocked on dependencies
    WAITING = "waiting"      #: in the wait queue, eligible for scheduling
    RUNNING = "running"      #: allocated and executing
    FINISHED = "finished"    #: completed (or killed at its walltime)
    FAILED = "failed"        #: lost to a fault and not requeued (abandoned)


class ExecMode(enum.Enum):
    """How a job was started — the paper's three execution modes (§III-B)."""

    READY = "ready"            #: selected to run immediately
    RESERVED = "reserved"      #: started at (or after) a resource reservation
    BACKFILLED = "backfilled"  #: filled a hole ahead of a reservation


_id_counter = itertools.count(1)


def _next_job_id() -> int:
    return next(_id_counter)


@dataclass(slots=True)
class Job:
    """A rigid batch job.

    Parameters
    ----------
    size:
        Number of compute nodes requested.  Fixed for the job lifetime.
    walltime:
        User-supplied runtime estimate in seconds (upper bound).
    runtime:
        Actual runtime in seconds.  Clamped to ``walltime`` on creation,
        mirroring production schedulers that kill jobs exceeding their
        estimate.
    submit_time:
        Submission timestamp in seconds since the trace epoch.
    priority:
        1 for high-priority (e.g. capability) jobs, 0 otherwise.  This is
        the third field of the paper's per-job state encoding.
    dependencies:
        Ids of jobs that must finish before this one becomes eligible.
        On Theta ~2.25% of jobs have dependencies; the scheduler hides
        them until all parents have executed (paper §IV-C).
    """

    size: int
    walltime: float
    runtime: float
    submit_time: float
    priority: int = 0
    dependencies: tuple[int, ...] = ()
    user: str = ""
    job_id: int = field(default_factory=_next_job_id)

    # -- mutable lifecycle state ------------------------------------------
    state: JobState = field(default=JobState.PENDING, compare=False)
    start_time: float | None = field(default=None, compare=False)
    end_time: float | None = field(default=None, compare=False)
    mode: ExecMode | None = field(default=None, compare=False)
    #: set once the job has ever held the backfill reservation; used for
    #: execution-mode attribution (Table IV).
    ever_reserved: bool = field(default=False, compare=False)
    #: times this job was killed by a fault (node failure or job kill)
    times_killed: int = field(default=0, compare=False)
    #: node-seconds of partial work lost to fault kills (wasted work)
    wasted_node_seconds: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        for name in ("walltime", "runtime", "submit_time"):  # NaN passes `<= 0`
            if not isfinite(value := getattr(self, name)):
                raise ValueError(f"job {self.job_id}: {name} must be finite, got {value}")
        if self.size <= 0:
            raise ValueError(f"job {self.job_id}: size must be positive, got {self.size}")
        if self.walltime <= 0:
            raise ValueError(f"job {self.job_id}: walltime must be positive, got {self.walltime}")
        if self.runtime <= 0:
            raise ValueError(f"job {self.job_id}: runtime must be positive, got {self.runtime}")
        if self.submit_time < 0:
            raise ValueError(f"job {self.job_id}: submit_time must be >= 0")
        if self.priority not in (0, 1):
            raise ValueError(f"job {self.job_id}: priority must be 0 or 1, got {self.priority}")
        # The scheduler kills jobs that run past their estimate.
        if self.runtime > self.walltime:
            self.runtime = float(self.walltime)
        self.walltime = float(self.walltime)
        self.runtime = float(self.runtime)
        self.submit_time = float(self.submit_time)

    # -- derived quantities -----------------------------------------------
    def queued_time(self, now: float) -> float:
        """Time elapsed since submission (the paper's fourth job feature)."""
        return max(0.0, now - self.submit_time)

    @property
    def wait_time(self) -> float:
        """Interval between submission and start (user-level metric)."""
        if self.start_time is None:
            raise ValueError(f"job {self.job_id} has not started")
        return self.start_time - self.submit_time

    @property
    def response_time(self) -> float:
        """Interval between submission and completion (user-level metric)."""
        if self.end_time is None:
            raise ValueError(f"job {self.job_id} has not finished")
        return self.end_time - self.submit_time

    def slowdown(self) -> float:
        """Ratio of response time to actual runtime (the paper's plain,
        unbounded slowdown, §IV-E)."""
        return self.response_time / self.runtime

    @property
    def node_seconds(self) -> float:
        """Nodes x actual runtime, the resource consumption of the job."""
        return self.size * self.runtime

    @property
    def core_hours(self) -> float:
        """Node-hours consumed (the paper reports these as core hours)."""
        return self.node_seconds / 3600.0

    # -- lifecycle transitions ---------------------------------------------
    def mark_started(self, now: float, mode: ExecMode) -> None:
        """Transition to RUNNING at ``now`` under execution mode ``mode``."""
        if self.state not in (JobState.WAITING, JobState.PENDING):
            raise RuntimeError(f"job {self.job_id} cannot start from state {self.state}")
        if now + 1e-9 < self.submit_time:
            raise RuntimeError(f"job {self.job_id} cannot start before submission")
        self.state = JobState.RUNNING
        self.start_time = float(now)
        self.mode = mode

    def mark_finished(self, now: float) -> None:
        """Transition from RUNNING to FINISHED at ``now``."""
        if self.state is not JobState.RUNNING:
            raise RuntimeError(f"job {self.job_id} cannot finish from state {self.state}")
        self.state = JobState.FINISHED
        self.end_time = float(now)

    def mark_killed(self, now: float, requeue: bool) -> None:
        """A fault killed this running job at ``now``.

        The partial work (``size * elapsed``) is accounted as wasted.
        With ``requeue`` the job returns to WAITING with a clean start
        (it restarts from scratch later); otherwise it becomes FAILED
        and never runs again.
        """
        if self.state is not JobState.RUNNING:
            raise RuntimeError(
                f"job {self.job_id} cannot be killed from state {self.state}"
            )
        assert self.start_time is not None
        self.wasted_node_seconds += self.size * max(0.0, now - self.start_time)
        self.times_killed += 1
        if requeue:
            self.state = JobState.WAITING
            self.start_time = None
            self.mode = None
        else:
            self.state = JobState.FAILED
            self.end_time = float(now)

    def mark_abandoned(self) -> None:
        """A fault made this non-running job permanently unrunnable.

        Used for held/pending dependents of a FAILED job (dependency
        cancellation): they never held nodes, so there is no wasted
        work to account.
        """
        if self.state in (JobState.RUNNING, JobState.FINISHED):
            raise RuntimeError(
                f"job {self.job_id} cannot be abandoned from state {self.state}"
            )
        self.state = JobState.FAILED

    def copy_fresh(self) -> "Job":
        """Return a pristine copy with all lifecycle state reset.

        Training runs many episodes over the same jobsets; each episode
        needs jobs with clean lifecycle state.
        """
        return Job(
            size=self.size,
            walltime=self.walltime,
            runtime=self.runtime,
            submit_time=self.submit_time,
            priority=self.priority,
            dependencies=self.dependencies,
            user=self.user,
            job_id=self.job_id,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job(id={self.job_id}, size={self.size}, walltime={self.walltime:.0f}, "
            f"runtime={self.runtime:.0f}, submit={self.submit_time:.0f}, "
            f"state={self.state.value})"
        )


def reset_job_id_counter(start: int = 1) -> None:
    """Reset the auto-id counter (useful for deterministic tests)."""
    global _id_counter
    _id_counter = itertools.count(start)
