"""Schedule validity checks and the ``sim_digest`` of a finished run.

Both run outside the timed region, after every repetition.  They read
only the public fields of :class:`repro.sim.job.Job`, so they judge the
simulator's *output* and share no code with it.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable, Sequence

from repro.sim.job import Job, JobState


def invalid_jobs(jobs: Sequence[Job], num_nodes: int) -> set[int]:
    """Trace indices of the jobs in ``jobs`` that violate a validity check.

    Per job: state FINISHED, ``start_time >= submit_time``,
    ``end_time == start_time + runtime`` (exact: the engine computes the
    FINISH time with this very addition) and every dependency ended
    before the job started.  Across jobs: a sweep over
    ``(start, +size)`` / ``(end, -size)`` must never exceed
    ``num_nodes``; the job whose start overflows the machine is the one
    counted.  A job that breaks several checks is counted once.
    """
    bad: set[int] = set()
    by_id = {job.job_id: job for job in jobs}
    sweep: list[tuple[float, int, int]] = []
    for index, job in enumerate(jobs):
        start, end = job.start_time, job.end_time
        if job.state is not JobState.FINISHED or start is None or end is None:
            bad.add(index)
            continue
        if start < job.submit_time or end != start + job.runtime:
            bad.add(index)
        for dep_id in job.dependencies:
            dep = by_id.get(dep_id)
            if dep is None or dep.end_time is None or dep.end_time > start:
                bad.add(index)
        # releases sort before allocations at the same instant (-size < 0),
        # which is the order the engine drains simultaneous events in
        sweep.append((end, -job.size, index))
        sweep.append((start, job.size, index))
    sweep.sort()
    used = 0
    for _, delta, index in sweep:
        used += delta
        if delta > 0 and used > num_nodes:
            bad.add(index)
    return bad


def count_failed(jobs: Sequence[Job], num_nodes: int, num_instances: int) -> int:
    """Jobs of one replayed trace that count as failed operations.

    A run that reports no scheduling instance cannot have scheduled
    anything, so every one of its jobs fails.
    """
    if num_instances <= 0:
        return len(jobs)
    return len(invalid_jobs(jobs, num_nodes))


def sim_digest(traces: Iterable[Sequence[Job]], agent=None) -> str:
    """SHA-256 over the simulated outcome of one repetition.

    Covers ``(trace index, start_time, end_time, mode)`` of every job —
    the trace index, not ``job_id``, which comes from a process-global
    counter — and, for agent workloads, the bytes of every network
    parameter after the run (what ``state_dict()`` would copy, in the
    same layer order, read in place so that hashing a 175 MB network
    does not raise the process's peak RSS).
    """
    digest = hashlib.sha256()
    nan = float("nan")
    for jobs in traces:
        digest.update(struct.pack("<q", len(jobs)))
        for index, job in enumerate(jobs):
            digest.update(struct.pack(
                "<qdd", index,
                nan if job.start_time is None else job.start_time,
                nan if job.end_time is None else job.end_time,
            ))
            digest.update(b"-" if job.mode is None else job.mode.value.encode())
    if agent is not None:
        for param in agent.network.parameters():
            digest.update(param.name.encode())
            digest.update(memoryview(param.value).cast("B"))
    return digest.hexdigest()
