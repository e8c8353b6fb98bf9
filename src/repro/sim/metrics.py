"""Scheduling metrics (paper section IV-E).

Four well-established metrics are measured:

* **job wait time** — submission to start (average, maximum and the full
  distribution);
* **job response time** — submission to completion;
* **job slowdown** — response time over actual runtime;
* **system utilization** — used node-hours of useful work over total
  elapsed node-hours.

:class:`RunMetrics` summarizes a finished :class:`SimulationResult`;
its utilization is job bookkeeping over the arrival span.  The exact
occupancy step function is the engine observer
:class:`~repro.obs.analyze.UtilizationTimeline`, which ``repro
report``'s trace section also replays from a trace.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.check import sanitize as _san
from repro.sim.engine import SimulationResult
from repro.sim.job import ExecMode, Job, JobState

SECONDS_PER_WEEK = 7 * 24 * 3600.0


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


@dataclass(frozen=True)
class RunMetrics:
    """Summary metrics of one simulation run."""

    num_jobs: int
    avg_wait: float
    max_wait: float
    p99_wait: float
    avg_response: float
    avg_slowdown: float
    utilization: float
    makespan: float
    total_core_hours: float

    @classmethod
    def from_result(
        cls, result: SimulationResult, slowdown_bound: float = 0.0
    ) -> "RunMetrics":
        """Compute all scalar metrics from a finished simulation run."""
        jobs = result.finished_jobs
        if _san.sanitizer_enabled():
            for job in jobs:
                _san.check_job_metrics(job)
        waits = [j.wait_time for j in jobs]
        responses = [j.response_time for j in jobs]
        slowdowns = [j.slowdown(bound=slowdown_bound) for j in jobs]
        used = sum(j.node_seconds for j in jobs)
        elapsed = result.elapsed
        # Utilization is measured over the *arrival span* (first to last
        # submission): after the last arrival the system necessarily
        # drains, and on short traces with long jobs that tail would
        # dominate the denominator.  Work done past the cutoff is
        # excluded from the numerator for consistency.
        cutoff = max((j.submit_time for j in jobs), default=0.0)
        span = cutoff - result.first_submit
        if span > 0:
            used_in_span = sum(
                j.size * max(0.0, min(j.end_time, cutoff) - j.start_time)
                for j in jobs
                if j.start_time is not None and j.start_time < cutoff
            )
            utilization = used_in_span / (result.num_nodes * span)
        else:
            # all jobs arrived at once: fall back to the full elapsed span
            capacity = result.num_nodes * elapsed
            utilization = used / capacity if capacity > 0 else 0.0
        return cls(
            num_jobs=len(jobs),
            avg_wait=_mean(waits),
            max_wait=float(max(waits)) if waits else 0.0,
            p99_wait=float(np.percentile(waits, 99)) if waits else 0.0,
            avg_response=_mean(responses),
            avg_slowdown=_mean(slowdowns),
            utilization=utilization,
            makespan=result.makespan,
            total_core_hours=used / 3600.0,
        )

    def as_dict(self) -> dict[str, float]:
        """All metrics as a flat, JSON-serialisable mapping."""
        return {
            "num_jobs": self.num_jobs,
            "avg_wait": self.avg_wait,
            "max_wait": self.max_wait,
            "p99_wait": self.p99_wait,
            "avg_response": self.avg_response,
            "avg_slowdown": self.avg_slowdown,
            "utilization": self.utilization,
            "makespan": self.makespan,
            "total_core_hours": self.total_core_hours,
        }

    @classmethod
    def from_dict(cls, data: "dict[str, float]") -> "RunMetrics":
        """Rebuild metrics from their :meth:`as_dict` form.

        Round-trip partner of :meth:`as_dict`; sweep rollups persist
        cells as JSON and reports rebuild them through here.
        """
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise ValueError(f"unknown RunMetrics key(s): {sorted(unknown)}")
        return cls(**{name: data[name] for name in fields})


@dataclass(frozen=True)
class ModeBreakdown:
    """Job-count and core-hour shares per execution mode (Table IV)."""

    job_share: dict[ExecMode, float]
    core_hour_share: dict[ExecMode, float]
    avg_wait: dict[ExecMode, float]

    @classmethod
    def from_jobs(cls, jobs: list[Job]) -> "ModeBreakdown":
        """Aggregate per-execution-mode shares over finished jobs."""
        finished = [j for j in jobs if j.state is JobState.FINISHED]
        total_jobs = len(finished)
        total_ch = sum(j.core_hours for j in finished)
        job_share: dict[ExecMode, float] = {}
        ch_share: dict[ExecMode, float] = {}
        avg_wait: dict[ExecMode, float] = {}
        for mode in ExecMode:
            group = [j for j in finished if j.mode is mode]
            job_share[mode] = len(group) / total_jobs if total_jobs else 0.0
            ch = sum(j.core_hours for j in group)
            ch_share[mode] = ch / total_ch if total_ch else 0.0
            avg_wait[mode] = _mean([j.wait_time for j in group])
        return cls(job_share=job_share, core_hour_share=ch_share, avg_wait=avg_wait)


def wait_by_size_category(
    jobs: list[Job], bounds: list[int]
) -> dict[str, list[float]]:
    """Wait times grouped into job-size categories (Fig 7).

    ``bounds`` are category upper bounds, e.g. ``[511, 1023, 2047, 4095]``
    produces categories ``<=511``, ``512-1023``, ..., ``>=4096``.
    """
    labels = _size_labels(bounds)
    groups: dict[str, list[float]] = {label: [] for label in labels}
    for job in jobs:
        if job.state is not JobState.FINISHED:
            continue
        groups[_size_label(job.size, bounds, labels)].append(job.wait_time)
    return groups


def _size_labels(bounds: list[int]) -> list[str]:
    labels = []
    lo = 1
    for b in bounds:
        labels.append(f"{lo}-{b}" if lo < b else f"{b}")
        lo = b + 1
    labels.append(f">={lo}")
    return labels


def _size_label(size: int, bounds: list[int], labels: list[str]) -> str:
    for b, label in zip(bounds, labels):
        if size <= b:
            return label
    return labels[-1]


def weekly_series(jobs: list[Job], origin: float = 0.0) -> dict[str, np.ndarray]:
    """Per-week total core hours and average wait (Fig 9).

    Jobs are bucketed by submission week relative to ``origin``.
    Returns arrays ``week``, ``core_hours`` and ``avg_wait``.
    """
    finished = [j for j in jobs if j.state is JobState.FINISHED]
    if not finished:
        return {
            "week": np.array([], dtype=np.int64),
            "core_hours": np.array([]),
            "avg_wait": np.array([]),
        }
    weeks = np.array(
        [int((j.submit_time - origin) // SECONDS_PER_WEEK) for j in finished]
    )
    n_weeks = int(weeks.max()) + 1
    core_hours = np.zeros(n_weeks)
    wait_sum = np.zeros(n_weeks)
    count = np.zeros(n_weeks)
    for j, w in zip(finished, weeks):
        core_hours[w] += j.core_hours
        wait_sum[w] += j.wait_time
        count[w] += 1
    avg_wait = np.divide(wait_sum, count, out=np.zeros(n_weeks), where=count > 0)
    return {
        "week": np.arange(n_weeks),
        "core_hours": core_hours,
        "avg_wait": avg_wait,
    }

