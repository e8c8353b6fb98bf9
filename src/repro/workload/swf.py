"""Standard Workload Format (SWF) reader and writer.

SWF is the interchange format of the Parallel Workloads Archive.  Each
non-comment line has 18 whitespace-separated fields; ``-1`` denotes a
missing value:

==  =======================  ==============================================
#   field                    use here
==  =======================  ==============================================
1   job number               ``Job.job_id``
2   submit time (s)          ``Job.submit_time``
3   wait time (s)            ignored (an output of scheduling, not input)
4   run time (s)             ``Job.runtime``
5   allocated processors     fallback size
6   average CPU time         ignored
7   used memory              ignored
8   requested processors     ``Job.size`` (divided by ``procs_per_node``)
9   requested time (s)       ``Job.walltime``
10  requested memory         ignored
11  status                   jobs with status 0/5 (failed/cancelled) kept
12  user id                  ``Job.user``
13  group id                 ignored
14  executable id            ignored
15  queue id                 optionally mapped to ``priority``
16  partition id             ignored
17  preceding job number     ``Job.dependencies``
18  think time               ignored
==  =======================  ==============================================
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable

from repro.obs.jsonl import atomic_write
from repro.sim.job import Job

_NUM_FIELDS = 18


def read_swf(
    path: str | Path,
    procs_per_node: int = 1,
    max_jobs: int | None = None,
    high_priority_queues: frozenset[int] = frozenset(),
) -> list[Job]:
    """Parse an SWF file into a list of :class:`~repro.sim.job.Job`.

    Any unparseable line (too few fields, a non-numeric or non-finite
    value) raises ``ValueError`` naming ``path:line`` and the reason;
    well-formed records with zero runtime, no processors or a negative
    submit time are skipped.  A ``procs_per_node`` or ``max_jobs`` below
    1 raises ``ValueError`` before the file is opened.

    Parameters
    ----------
    procs_per_node:
        Requested processor counts are divided by this (rounded up) to
        obtain node counts, since the simulator schedules whole nodes.
    max_jobs:
        Stop after this many jobs (useful for taking trace prefixes).
    high_priority_queues:
        SWF queue ids mapped to ``priority=1``.
    """
    if procs_per_node < 1:
        raise ValueError(
            f"procs_per_node must be positive, got {procs_per_node}")
    if max_jobs is not None and max_jobs < 1:
        raise ValueError(f"max_jobs must be positive, got {max_jobs}")
    jobs: list[Job] = []
    seen_ids: set[int] = set()
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith(";"):
                continue
            parts = line.split()
            try:
                if len(parts) < _NUM_FIELDS:
                    raise ValueError(
                        f"expected {_NUM_FIELDS} fields, got {len(parts)}"
                    )
                job = _parse_record(
                    parts, procs_per_node, high_priority_queues, seen_ids,
                )
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if job is None:
                continue
            jobs.append(job)
            seen_ids.add(job.job_id)
            if max_jobs is not None and len(jobs) >= max_jobs:
                break
    jobs.sort(key=lambda j: (j.submit_time, j.job_id))
    return jobs


def _parse_record(
    parts: list[str],
    procs_per_node: int,
    high_priority_queues: frozenset[int],
    seen_ids: set[int],
) -> Job | None:
    job_id = int(parts[0])
    submit = float(parts[1])
    run_time = float(parts[3])
    allocated = int(float(parts[4]))
    requested_procs = int(float(parts[7]))
    requested_time = float(parts[8])
    user_id = parts[11]
    queue_id = int(float(parts[14]))
    preceding = int(float(parts[16]))

    procs = requested_procs if requested_procs > 0 else allocated
    if procs <= 0 or run_time <= 0 or submit < 0:
        return None  # malformed / zero-length records are skipped
    walltime = requested_time if requested_time > 0 else run_time
    size = max(1, math.ceil(procs / procs_per_node))

    deps: tuple[int, ...] = ()
    if preceding > 0 and preceding in seen_ids:
        deps = (preceding,)

    return Job(
        size=size,
        walltime=walltime,
        runtime=run_time,
        submit_time=submit,
        priority=1 if queue_id in high_priority_queues else 0,
        dependencies=deps,
        user=user_id,
        job_id=job_id,
    )


def write_swf(
    jobs: Iterable[Job],
    path: str | Path,
    header: str | None = None,
) -> None:
    """Serialize jobs to SWF.

    Post-scheduling fields (wait time) are emitted when available so a
    simulated schedule can round-trip through standard SWF tooling.
    The file is written atomically: a ``jobs`` iterable that raises
    leaves any earlier file at ``path`` as it was.
    """
    with atomic_write(path) as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"; {line}\n")
        for job in jobs:
            wait = -1
            if job.start_time is not None:
                wait = int(job.start_time - job.submit_time)
            dep = job.dependencies[0] if job.dependencies else -1
            fields = [
                job.job_id,
                int(job.submit_time),
                wait,
                int(job.runtime),
                job.size,                    # allocated processors
                -1,
                -1,
                job.size,                    # requested processors
                int(job.walltime),
                -1,
                1,                           # status: completed
                job.user or -1,
                -1,
                -1,
                1 if job.priority else 0,    # queue id encodes priority
                -1,
                dep,
                -1,
            ]
            fh.write(" ".join(str(f) for f in fields) + "\n")
