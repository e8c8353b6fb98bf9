"""Trace statistics and workload-model fitting.

The paper calibrates its synthetic jobsets to the target system's
patterns — hourly and daily arrivals, and the distributions of job
sizes and runtimes (Fig 3).  This module computes those statistics from
any trace and, through :func:`fit_model`, estimates a complete
:class:`~repro.workload.models.WorkloadModel` from it, so the
three-phase curriculum can be built directly from a site's own SWF log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.job import Job
from repro.workload.generator import (
    CategoricalSizes,
    DiurnalArrivals,
    LognormalRuntimes,
)
from repro.workload.models import WorkloadModel
from repro.workload.units import SECONDS_PER_DAY as _DAY
from repro.workload.units import SECONDS_PER_HOUR as _HOUR


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of one trace."""

    num_jobs: int
    span_seconds: float
    arrival_rate: float                 #: jobs per second
    hourly_profile: tuple[float, ...]   #: 24 relative weights, mean 1
    daily_profile: tuple[float, ...]    #: 7 relative weights, mean 1
    size_mix: dict[int, float]          #: node count -> probability
    runtime_median: float
    runtime_log_sigma: float
    max_runtime: float
    mean_overestimate: float            #: mean of walltime/runtime - 1
    dependency_prob: float
    offered_load_per_node: float        #: node-seconds demanded per node-second


def analyze_trace(jobs: list[Job], num_nodes: int | None = None) -> TraceStats:
    """Compute :class:`TraceStats` for a trace.

    ``num_nodes`` is needed for the offered load; when omitted, the
    largest job size is used as a lower bound for the system size.
    """
    if len(jobs) < 2:
        raise ValueError("need at least two jobs to analyze a trace")
    submits = np.array([j.submit_time for j in jobs])
    sizes = np.array([j.size for j in jobs])
    runtimes = np.array([j.runtime for j in jobs])
    walltimes = np.array([j.walltime for j in jobs])

    span = float(submits.max() - submits.min())
    if span <= 0:
        raise ValueError("trace has zero time span")
    if num_nodes is None:
        num_nodes = int(sizes.max())

    hours = ((submits % _DAY) // _HOUR).astype(int)
    days = ((submits // _DAY) % 7).astype(int)
    hourly = np.bincount(hours, minlength=24).astype(np.float64)
    daily = np.bincount(days, minlength=7).astype(np.float64)
    # guard all-zero slots, then normalize to mean 1
    hourly = np.maximum(hourly, 1e-9)
    daily = np.maximum(daily, 1e-9)
    hourly /= hourly.mean()
    daily /= daily.mean()

    unique, counts = np.unique(sizes, return_counts=True)
    size_mix = {int(s): float(c) / len(jobs) for s, c in zip(unique, counts)}

    log_rt = np.log(runtimes)
    over = walltimes / runtimes - 1.0
    deps = sum(1 for j in jobs if j.dependencies)

    return TraceStats(
        num_jobs=len(jobs),
        span_seconds=span,
        arrival_rate=(len(jobs) - 1) / span,
        hourly_profile=tuple(float(h) for h in hourly),
        daily_profile=tuple(float(d) for d in daily),
        size_mix=size_mix,
        runtime_median=float(np.exp(np.median(log_rt))),
        runtime_log_sigma=float(log_rt.std()),
        max_runtime=float(runtimes.max()),
        mean_overestimate=float(np.mean(over)),
        dependency_prob=deps / len(jobs),
        offered_load_per_node=float(np.sum(sizes * runtimes))
        / (num_nodes * span),
    )


def fit_model(
    jobs: list[Job],
    num_nodes: int,
    name: str = "fitted",
    max_size_categories: int = 32,
) -> WorkloadModel:
    """Estimate a :class:`WorkloadModel` from a trace.

    The empirical size histogram is truncated to its
    ``max_size_categories`` most frequent sizes (re-normalized); the
    runtime distribution is a lognormal fit with the trace's cap; the
    arrival process keeps the trace's hour-of-day and day-of-week
    shape and its average rate.
    """
    stats = analyze_trace(jobs, num_nodes)
    top = sorted(stats.size_mix.items(), key=lambda kv: -kv[1])[:max_size_categories]
    sizes = CategoricalSizes.from_dict(dict(top))
    runtimes = LognormalRuntimes(
        median=stats.runtime_median,
        sigma=max(stats.runtime_log_sigma, 0.05),
        max_runtime=stats.max_runtime,
        min_runtime=max(1.0, min(j.runtime for j in jobs)),
        mean_overestimate=max(stats.mean_overestimate, 0.0),
    )
    arrivals = DiurnalArrivals(
        base_rate=stats.arrival_rate,
        hourly=stats.hourly_profile,
        daily=stats.daily_profile,
    )
    return WorkloadModel(
        name=name,
        num_nodes=num_nodes,
        arrivals=arrivals,
        sizes=sizes,
        runtimes=runtimes,
        priority_threshold=max(1, num_nodes // 8),
        dependency_prob=min(1.0, stats.dependency_prob),
    )
