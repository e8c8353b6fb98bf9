"""Training jobsets and the three-phase curriculum (paper section III-C).

DRAS is trained episodically, one jobset per episode, following the
principle of gradual improvement: *start with simple average cases and
gradually improve with unseen rare cases*.  Three jobset types are used
in order:

1. **sampled** — jobs sampled at random from the real training trace
   with arrivals re-drawn from a Poisson process whose mean
   inter-arrival matches the original trace: the easiest, most
   controlled environment;
2. **real** — contiguous one-week chunks of the actual trace, exposing
   real arrival burstiness;
3. **synthetic** — jobsets from the statistical workload model,
   covering rare states absent from the original trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.job import Job
from repro.workload.generator import PoissonArrivals
from repro.workload.models import WorkloadModel
from repro.workload.units import SECONDS_PER_WEEK


def normalize_times(jobs: list[Job]) -> list[Job]:
    """Fresh copies with submit times shifted so the earliest is 0."""
    if not jobs:
        return []
    origin = min(j.submit_time for j in jobs)
    out = []
    for j in jobs:
        fresh = j.copy_fresh()
        fresh.submit_time = j.submit_time - origin
        out.append(fresh)
    out.sort(key=lambda j: (j.submit_time, j.job_id))
    return out


def split_weeks(jobs: list[Job], week_seconds: float = SECONDS_PER_WEEK) -> list[list[Job]]:
    """Split a trace into contiguous week-long jobsets (times re-zeroed).

    Dependencies crossing a chunk boundary are dropped: the parent is
    not part of the chunk, so keeping the edge would hold the child
    forever.
    """
    if not jobs:
        return []
    ordered = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
    origin = ordered[0].submit_time
    chunks: dict[int, list[Job]] = {}
    for j in ordered:
        chunks.setdefault(int((j.submit_time - origin) // week_seconds), []).append(j)
    out: list[list[Job]] = []
    for week in sorted(chunks):
        members = chunks[week]
        ids = {j.job_id for j in members}
        cleaned = []
        for j in members:
            fresh = j.copy_fresh()
            fresh.dependencies = tuple(d for d in j.dependencies if d in ids)
            cleaned.append(fresh)
        out.append(normalize_times(cleaned))
    return out


def arrival_rate(base: list[Job]) -> float:
    """The average arrival rate of ``base``, in jobs per second.

    Raises ``ValueError`` for a trace that has no rate: one that is
    empty, or whose jobs all arrive at one instant.
    """
    if not base:
        raise ValueError("base trace is empty")
    span = max(j.submit_time for j in base) - min(j.submit_time for j in base)
    if span <= 0 or len(base) < 2:
        raise ValueError("cannot infer arrival rate from a degenerate trace")
    return (len(base) - 1) / span


def sampled_jobset(
    base: list[Job],
    n_jobs: int,
    rng: np.random.Generator,
) -> list[Job]:
    """A *sampled* jobset: random jobs + Poisson arrivals (§IV-D).

    Jobs are drawn uniformly with replacement from ``base``; arrival
    times are re-drawn from a Poisson process at the
    :func:`arrival_rate` of ``base``.  Dependencies are dropped —
    sampled jobs lose their parents.
    """
    rate = arrival_rate(base)
    if n_jobs <= 0:
        raise ValueError("n_jobs must be positive")
    times = PoissonArrivals(rate).sample(n_jobs, rng)
    picks = rng.integers(len(base), size=n_jobs)
    out: list[Job] = []
    for t, k in zip(times, picks):
        src = base[int(k)]
        out.append(
            Job(
                size=src.size,
                walltime=src.walltime,
                runtime=src.runtime,
                submit_time=float(t),
                priority=src.priority,
                user=src.user,
            )
        )
    return out


def real_jobsets(base: list[Job], n_sets: int) -> list[list[Job]]:
    """``n_sets`` contiguous chunks of the real (reference) trace.

    Chunks are one week long when the trace is long enough (the paper
    splits the Theta training data into nine one-week jobsets);
    shorter traces are split into ``n_sets`` equal-duration chunks.
    """
    if not base:
        raise ValueError("trace is empty")
    if n_sets <= 0:
        raise ValueError("n_sets must be positive")
    span = max(j.submit_time for j in base) - min(j.submit_time for j in base)
    chunk = min(SECONDS_PER_WEEK, max(1.0, span / n_sets))
    chunks = split_weeks(base, week_seconds=chunk)
    chunks = [c for c in chunks if c]
    if len(chunks) < n_sets:
        raise ValueError(
            f"trace yields only {len(chunks)} non-empty chunks, "
            f"cannot build {n_sets} real jobsets"
        )
    return chunks[:n_sets]


def synthetic_jobsets(
    model: WorkloadModel,
    n_sets: int,
    jobs_per_set: int,
    rng: np.random.Generator,
) -> list[list[Job]]:
    """Synthetic jobsets spanning a range of load conditions.

    Cycling through the load factors 0.7, 1.0, 1.0, 1.3 exposes the
    agent to under- and over-loaded states that may not occur in the
    original trace.
    """
    load_factors = (0.7, 1.0, 1.0, 1.3)
    if n_sets <= 0 or jobs_per_set <= 0:
        raise ValueError("n_sets and jobs_per_set must be positive")
    sets = []
    for i in range(n_sets):
        lf = load_factors[i % len(load_factors)]
        sets.append(model.generate(jobs_per_set, rng, load_factor=lf))
    return sets


@dataclass(frozen=True)
class CurriculumPhase:
    """One phase of the training curriculum."""

    name: str
    jobsets: list[list[Job]]

    def __len__(self) -> int:
        return len(self.jobsets)


def three_phase_curriculum(
    model: WorkloadModel,
    base_trace: list[Job],
    rng: np.random.Generator,
    n_sampled: int = 9,
    n_real: int = 9,
    n_synthetic: int = 82,
    jobs_per_set: int | None = None,
    order: tuple[str, ...] = ("sampled", "real", "synthetic"),
) -> list[CurriculumPhase]:
    """Build the paper's three-phase curriculum in a configurable order.

    The defaults (9 sampled, 9 real, 82 synthetic) match the Theta
    training setup of §IV-D.  ``order`` permutes the phases, which the
    Fig 4 experiment uses to show that sampled -> real -> synthetic
    converges fastest.
    """
    valid = {"sampled", "real", "synthetic"}
    if set(order) != valid or len(order) != 3:
        raise ValueError(f"order must be a permutation of {sorted(valid)}, got {order}")
    if jobs_per_set is None:
        weeks = max(1, len(split_weeks(base_trace)))
        jobs_per_set = max(10, len(base_trace) // weeks)

    phases: dict[str, CurriculumPhase] = {
        "sampled": CurriculumPhase(
            "sampled",
            [sampled_jobset(base_trace, jobs_per_set, rng) for _ in range(n_sampled)],
        ),
        "real": CurriculumPhase("real", real_jobsets(base_trace, n_real)),
        "synthetic": CurriculumPhase(
            "synthetic",
            synthetic_jobsets(model, n_synthetic, jobs_per_set, rng),
        ),
    }
    return [phases[name] for name in order]
