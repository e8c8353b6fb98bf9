"""Fig 9 — adaptation to workload change.

A multi-week test trace with demand surges is replayed under each
method; the top panel reports total core hours submitted per week (the
same workload for every method) and the bottom panel the average job
wait per week.  The paper's finding: the static policies degrade badly
in surge weeks, while the online-learning DRAS agents keep adjusting
their parameters and achieve a greater wait-time reduction exactly when
the load spikes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.plots import line_chart
from repro.analysis.tables import format_table
from repro.experiments.common import get_scale, system_setup, trained_agent
from repro.schedulers import BASELINES, POLICIES
from repro.sim.cluster import Cluster
from repro.sim.engine import Engine
from repro.sim.job import Job
from repro.sim.metrics import SECONDS_PER_WEEK, weekly_series

#: weekly load multipliers; weeks 2 and 5 are demand surges
SURGE_PROFILE: tuple[float, ...] = (1.0, 0.9, 1.7, 1.0, 0.85, 1.8, 1.1, 1.0)

#: shorter profile used at tiny scale (tests); week 2 is the surge
SURGE_PROFILE_TINY: tuple[float, ...] = (1.0, 0.9, 1.7, 1.0)


def surge_trace(
    setup, rng: np.random.Generator, profile: tuple[float, ...] = SURGE_PROFILE
) -> list[Job]:
    """A trace whose weekly offered load follows ``profile``."""
    jobs: list[Job] = []
    for week, load in enumerate(profile):
        start = week * SECONDS_PER_WEEK
        jobs.extend(
            setup.model.generate_span(
                SECONDS_PER_WEEK, rng, start=start, load_factor=load
            )
        )
    jobs.sort(key=lambda j: (j.submit_time, j.job_id))
    return jobs


@dataclass(frozen=True)
class AdaptationResult:
    weeks: tuple[int, ...]
    core_hours: tuple[float, ...]
    #: {method: weekly average wait (hours)}
    weekly_wait_h: dict[str, tuple[float, ...]]


def run(scale: str = "default", seed: int = 0) -> AdaptationResult:
    scale_obj = get_scale(scale)
    setup = system_setup("theta", scale, seed)
    profile = SURGE_PROFILE_TINY if scale_obj.name == "tiny" else SURGE_PROFILE
    trace = surge_trace(setup, np.random.default_rng(seed + 7), profile=profile)

    # FCFS and the knapsack Optimization, the first and last baselines,
    # against the two DRAS agents learning online
    methods = [POLICIES[key](setup.config.objective, seed)
               for key in (BASELINES[0], BASELINES[-1])]
    methods += [trained_agent(kind, "theta", scale, seed)[0]
                .eval(online_learning=True) for kind in ("pg", "dql")]

    weekly_wait: dict[str, tuple[float, ...]] = {}
    core_hours: tuple[float, ...] = ()
    weeks: tuple[int, ...] = ()
    for scheduler in methods:
        engine = Engine(
            Cluster(setup.model.num_nodes),
            scheduler,
            [j.copy_fresh() for j in trace],
        )
        result = engine.run()
        series = weekly_series(result.finished_jobs)
        weekly_wait[scheduler.name] = tuple(
            float(w) / 3600.0 for w in series["avg_wait"]
        )
        weeks = tuple(int(w) for w in series["week"])
        core_hours = tuple(float(c) for c in series["core_hours"])
    return AdaptationResult(
        weeks=weeks, core_hours=core_hours, weekly_wait_h=weekly_wait
    )


def report(result: AdaptationResult) -> str:
    methods = list(result.weekly_wait_h)
    rows = []
    for i, week in enumerate(result.weeks):
        row = [week, f"{result.core_hours[i]:.0f}"]
        for m in methods:
            series = result.weekly_wait_h[m]
            row.append(f"{series[i]:.2f}" if i < len(series) else "-")
        rows.append(row)
    table = format_table(
        ["week", "core hours", *[f"{m} wait (h)" for m in methods]],
        rows,
        title="Fig 9: weekly load and average job wait during demand surges (Theta)",
    )
    chart = line_chart(
        {m: list(result.weekly_wait_h[m]) for m in methods},
        title="weekly average wait (h) per method:",
    )
    return table + "\n\n" + chart
