"""Method-comparison helpers used by the figure/table experiments.

The paper's Fig 6 Kiviat graphs plot, for each method, the *reciprocal*
of average wait, maximum wait, average slowdown and average response
time, plus the system utilization, all normalized to [0, 1] where 1 is
the best method and 0 the worst.  :func:`kiviat_normalize` implements
exactly that transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.cluster import Cluster
from repro.sim.engine import Engine, SimulationResult
from repro.sim.job import Job
from repro.sim.metrics import ModeBreakdown, RunMetrics


@dataclass
class MethodResult:
    """Everything one evaluated method produced."""

    name: str
    result: SimulationResult
    metrics: RunMetrics
    modes: ModeBreakdown

    @property
    def jobs(self) -> list[Job]:
        return self.result.finished_jobs


def evaluate_method(
    scheduler,
    jobs: list[Job],
    num_nodes: int,
) -> MethodResult:
    """Run one scheduler over a fresh copy of ``jobs`` and summarize."""
    engine = Engine(
        Cluster(num_nodes),
        scheduler,
        [j.copy_fresh() for j in jobs],
    )
    result = engine.run()
    return MethodResult(
        name=scheduler.name,
        result=result,
        metrics=RunMetrics.from_result(result),
        modes=ModeBreakdown.from_jobs(result.jobs),
    )


#: Fig 6 metric set: (label, extractor, higher_is_better)
KIVIAT_METRICS: tuple[tuple[str, str, bool], ...] = (
    ("1/avg wait", "avg_wait", False),
    ("1/max wait", "max_wait", False),
    ("1/avg slowdown", "avg_slowdown", False),
    ("1/avg response", "avg_response", False),
    ("utilization", "utilization", True),
)


def kiviat_normalize(results: list[MethodResult]) -> dict[str, dict[str, float]]:
    """Per-method normalized Kiviat values (Fig 6).

    For lower-is-better metrics the reciprocal is taken first; then all
    values are min-max normalized across methods so 1 is the best and 0
    the worst.  Returns ``{method: {metric_label: value}}``.
    """
    if not results:
        raise ValueError("no results to normalize")
    out: dict[str, dict[str, float]] = {r.name: {} for r in results}
    for label, attr, higher_better in KIVIAT_METRICS:
        raw = np.array([getattr(r.metrics, attr) for r in results], dtype=np.float64)
        if not higher_better:
            raw = 1.0 / np.maximum(raw, 1e-12)
        lo, hi = raw.min(), raw.max()
        span = hi - lo
        for r, v in zip(results, raw):
            out[r.name][label] = float((v - lo) / span) if span > 0 else 1.0
    return out


def kiviat_area(values: dict[str, float]) -> float:
    """Area of the Kiviat polygon — "the larger the area, the better".

    Vertices are placed on equally-spaced spokes; the area is the sum of
    the triangle areas between consecutive spokes.
    """
    v = np.array(list(values.values()), dtype=np.float64)
    n = v.size
    if n < 3:
        raise ValueError("a Kiviat polygon needs at least 3 metrics")
    angle = 2 * np.pi / n
    return float(0.5 * np.sin(angle) * np.sum(v * np.roll(v, -1)))

